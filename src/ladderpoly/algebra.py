"""Exact univariate polynomial and rational-function arithmetic over the rationals.

Scalars taken and returned are ``int`` or ``fractions.Fraction``.  A polynomial
is stored as a content times a dense tuple of Python ``int``s indexed by degree,
as FLINT's ``fmpq_poly`` is.  The content is a reduced int pair over a positive
denominator; the ints are primitive (their gcd is 1), have a positive leading
entry and no trailing zeros; zero is (0, 1, ()).  The fields are canonical, so
equality and hashing compare ints, and ``content``, ``coeffs`` and printing
build a ``Fraction`` or a string only when asked.  A rational function keeps
its denominator monic and coprime to the numerator, so equal functions have
identical representations.  Both are slotted frozen dataclasses.

Arithmetic builds no ``Fraction``: a product by a unit is the other factor, and
any other result touches the content pair once, through ``_ratio_mul`` (two
cross gcds).  A product multiplies the contents and convolves the ints, with no
gcd on them: by Gauss's lemma a product of primitive polynomials is primitive.
A sum scales both operands to one content and takes one gcd.  One fraction-free
kernel on the ints, ``_divide``, serves divmod, gcd and cancellation; it scales
the remainder by lead / gcd(term, lead) only when that is not 1.  ``poly_gcd``
runs Euclid on primitive int remainders, the primitive remainder sequence
(Knuth, TAOCP vol. 2, 4.6.1; Brown and Traub 1971).  Evaluation at p/q runs
Horner's rule and builds one ``Fraction``.

``RationalFunction`` arithmetic on reduced operands cancels only what can
cancel, the gcd-saving rules for fractions over a Euclidean domain (Henrici,
JACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1), and wraps the result without a
further gcd:

* (a/b)(c/d) divides out gcd(a, d) and gcd(c, b); a quotient multiplies by
  the monic reciprocal;
* a/b + c/d with d1 = gcd(b, d) cancels only gcd(t, d1) from t = a(d/d1) +
  c(b/d1) over b(d/d1): gcd(a + c, b) for b = d, and nothing for b = d = 1;
* (a/b)' = (a'(b/g) - a(b'/g)) / (b(b/g)) with g = gcd(b, b') is reduced in
  characteristic 0, and negation needs no gcd.

Every cancellation, the public constructor's included, goes through
``_cancel``.  It skips Euclid when either side is constant, and otherwise
divides both sides by the gcd exactly, which by Gauss's lemma never scales.

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
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Union

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
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _ratio(value: Scalar) -> tuple[int, int]:
    """The reduced numerator and positive denominator of an exact scalar."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"not an exact scalar: {value!r}")


def _ratio_mul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a/b)(c/d) reduced over a positive denominator, for coprime pairs with b > 0 and d != 0: two cross gcds."""
    g, h = math.gcd(a, d), math.gcd(c, b)
    num, den = (a // g) * (c // h), (b // h) * (d // g)
    return (num, den) if den > 0 else (-num, -den)


def _primitive(num: int, den: int, ints: list[int]) -> tuple[int, int, tuple[int, ...]]:
    """(num/den) * ints in canonical form: no trailing zeros, primitive ints, positive lead."""
    end = len(ints)
    while end and not ints[end - 1]:
        end -= 1
    if not end:
        return 0, 1, ()
    ints = ints[:end]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g == 1:
        return num, den, tuple(ints)
    return *_ratio_mul(num, den, g, 1), tuple(c // g for c in ints)


def _divide(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """Fraction-free long division of int tuples, b primitive with a positive leading entry.

    Before a step whose leading term c the leading entry of b does not
    divide, the remainder and the quotient so far are scaled by
    lead / gcd(c, lead); ``scale`` collects those factors, so that
    scale * a == quotient * b + remainder, and it is 1 when b divides a.
    """
    top, lead = len(b) - 1, b[-1]
    remainder = list(a)
    quotient = [0] * (len(a) - top)
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
                remainder[k + j] -= q * b[j]
    return scale, quotient, remainder[:top]


def _sealed(cls: type) -> list:
    """Field setters of a slotted frozen dataclass, made to raise FrozenInstanceError, not TypeError, for any name."""

    def refuse(self, name: str, *value) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete {name!r}")

    cls.__setattr__ = cls.__delattr__ = refuse
    return [cls.__dict__[f.name].__set__ for f in fields(cls)]


@dataclass(frozen=True, slots=True, init=False)
class Polynomial:
    """Dense univariate polynomial ``(content_num / content_den) * sum(ints[k] * x**k)``.

    The content pair is reduced over a positive denominator and ``ints`` is primitive with a
    positive leading entry, so the fields are canonical; ``content`` and ``coeffs`` build ``Fraction``s.
    """

    content_num: int
    content_den: int
    ints: tuple[int, ...]

    def __new__(cls, coeffs: Iterable[Scalar] = ()) -> Polynomial:
        pairs = [_ratio(c) for c in coeffs]
        den = math.lcm(*(d for _, d in pairs))
        return cls._make(1, den, [n * (den // d) for n, d in pairs])

    @classmethod
    def _raw(cls, num: int, den: int, ints: tuple[int, ...]) -> Polynomial:
        """Wrap fields already in canonical form, skipping every check."""
        poly = object.__new__(cls)
        _set_content_num(poly, num)
        _set_content_den(poly, den)
        _set_ints(poly, ints)
        return poly

    @classmethod
    def _make(cls, num: int, den: int, ints: list[int]) -> Polynomial:
        """(num/den) * ints, brought to canonical form."""
        return cls._raw(*_primitive(num, den, ints))

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
    def content(self) -> Fraction:
        return Fraction(self.content_num, self.content_den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, den) for num, den in _coeff_ratios(self))

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
        return self.coefficient(self.degree)

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self.ints):
            return Fraction(self.content_num * self.ints[degree], self.content_den)
        return Fraction(0)

    def _scaled(self, num: int, den: int) -> Polynomial:
        """self * (num/den), for num and den coprime and den nonzero."""
        if not num or not self.ints:
            return ZERO
        if num == den:  # a unit: self itself
            return self
        return Polynomial._raw(*_ratio_mul(self.content_num, self.content_den, num, den), self.ints)

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
        na, da, nb, db = self.content_num, self.content_den, other.content_num, other.content_den
        gn, gd = math.gcd(na, nb), math.gcd(da, db)
        sa, sb = na // gn * (db // gd), nb // gn * (da // gd)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        merged = [sa * c for c in a]
        for i, c in enumerate(b):
            merged[i] += sb * c
        return Polynomial._make(gn, da // gd * db, merged)

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _as_poly(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(-self.content_num, self.content_den, self.ints)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(other.numerator, other.denominator)
        a, b = self.ints, other.ints
        if len(b) == 1 and other.content_num == other.content_den:  # a unit: the other factor itself
            return self
        if len(a) == 1 and self.content_num == self.content_den:
            return other
        if not a or not b:
            return ZERO
        num, den = _ratio_mul(self.content_num, self.content_den, other.content_num, other.content_den)
        # A constant's ints are (1,), and by Gauss's lemma the product of
        # primitive polynomials is primitive.
        if len(a) == 1 or len(b) == 1:
            return Polynomial._raw(num, den, a if len(b) == 1 else b)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial._raw(num, den, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result, base, e = ONE, self, exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            base = base * base if e else base  # no square past the top bit
        return result

    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Long division by the kernel ``_divide``, with the contents put back."""
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        scale, quotient, remainder = _divide(self.ints, other.ints)
        num, den = _ratio_mul(self.content_num, self.content_den, 1, scale)
        quotient_content = _ratio_mul(num, den, other.content_den, other.content_num)
        return Polynomial._make(*quotient_content, quotient), Polynomial._make(num, den, remainder)

    def __floordiv__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other: Polynomial) -> Polynomial:
        return divmod(self, other)[1]

    def __call__(self, point: Scalar) -> Fraction:
        """Evaluate by Horner's rule on the ints, homogenized at point = p/q."""
        p, q = _ratio(point)
        acc, q_power = 0, 1
        for c in reversed(self.ints):
            acc = acc * p + c * q_power
            q_power *= q
        # acc is the value times q**degree, and q_power is q**(degree + 1).
        return Fraction(self.content_num * acc * q, self.content_den * q_power)

    def diff(self) -> Polynomial:
        return Polynomial._make(self.content_num, self.content_den, [k * c for k, c in enumerate(self.ints)][1:])

    def integral(self) -> Polynomial:
        """Antiderivative with integration constant fixed to zero."""
        den = math.lcm(*range(1, len(self.ints) + 1))
        scaled = [0] + [c * (den // k) for k, c in enumerate(self.ints, 1)]
        return Polynomial._make(*_ratio_mul(self.content_num, self.content_den, 1, den), scaled)

    def compose(self, inner: Polynomial) -> Polynomial:
        """Substitution self(inner(x)), exact."""
        acc = ZERO
        for c in reversed(self.ints):
            acc = acc * inner + c
        return acc._scaled(self.content_num, self.content_den)

    def monic(self) -> Polynomial:
        if self.is_zero:
            return self
        return Polynomial._raw(1, self.ints[-1], self.ints)

    def to_text(self, var: str = "x") -> str:
        return _render_poly(self, var, latex=False)

    def to_latex(self, var: str = "x") -> str:
        return _render_poly(self, var, latex=True)

    def __str__(self) -> str:
        return self.to_text()


_set_content_num, _set_content_den, _set_ints = _sealed(Polynomial)
ZERO = Polynomial._raw(0, 1, ())
ONE = Polynomial._raw(1, 1, (1,))
X = Polynomial._raw(1, 1, (0, 1))


def _as_poly(value: Polynomial | Scalar) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial._raw(value.numerator, value.denominator, (1,)) if value else ZERO
    return NotImplemented


def linear(root: Scalar) -> Polynomial:
    """The monic factor (x - root)."""
    p, q = _ratio(root)
    return Polynomial._raw(1, q, (-p, q))


def nth_derivative(p: Polynomial, order: int) -> Polynomial:
    """The order-th derivative of p, in one pass: c_k x^k contributes k!/(k-order)! c_k x^(k-order)."""
    perms = accumulate(range(order + 1, len(p.ints)), lambda f, k: f * k // (k - order), initial=math.factorial(order))
    return Polynomial._make(p.content_num, p.content_den, [f * c for f, c in zip(perms, p.ints[order:])])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor by Euclid on primitive ints (primitive PRS).

    Making each remainder primitive keeps the scale factors of ``_divide``
    from piling up; no Polynomial or Fraction is built until the result.
    """
    a, b = a.ints, b.ints
    while b:
        a, b = b, _primitive(1, 1, _divide(a, b)[2])[2]
    return Polynomial._raw(1, a[-1], a) if a else ZERO


def _cancel(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(a/g, b/g, g) for the monic gcd g, exact on the ints by Gauss's lemma; a constant side takes no gcd."""
    g = ONE
    if len(a.ints) > 1 and len(b.ints) > 1:
        g = poly_gcd(a, b)
        if len(g.ints) > 1:
            lead = g.ints[-1]
            a, b = (
                Polynomial._raw(*_ratio_mul(p.content_num, p.content_den, lead, 1), tuple(_divide(p.ints, g.ints)[1]))
                for p in (a, b)
            )
    return a, b, g


def _over_monic(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(a / lead, b / lead) for b's leading coefficient lead: the quotient a/b over a monic denominator."""
    num, den = _ratio_mul(b.content_num, b.content_den, b.ints[-1], 1)
    return a._scaled(den, num), b.monic()


@dataclass(frozen=True, slots=True)
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
            num, den, _ = _cancel(num, den)
            if (den.content_num, den.content_den) != (1, den.ints[-1]):
                num, den = _over_monic(num, den)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """Wrap num/den, already coprime with den monic, skipping every check."""
        out = object.__new__(cls)
        _set_num(out, num)
        _set_den(out, den)
        return out

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def __add__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        """a/b + c/d with d1 = gcd(b, d): only gcd(a*(d/d1) + c*(b/d1), d1) can cancel."""
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(b.ints) == 1 == len(d.ints):  # both over ONE: one polynomial sum
            return RationalFunction._reduced(a + c, ONE)
        b, d, d1 = (ONE, ONE, b) if b == d else _cancel(b, d)
        t = a * d + c * b
        if not t.ints:
            return _ZERO_RF
        t, d1, _ = _cancel(t, d1)
        return RationalFunction._reduced(t, b * d1 * d)

    __radd__ = __add__

    def __sub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self) -> RationalFunction:
        return RationalFunction._reduced(-self.num, self.den)

    def _times(self, c: Polynomial, d: Polynomial) -> RationalFunction:
        """self * c/d for c, d coprime and d monic: only gcd(num, d) and gcd(c, den) can cancel."""
        a, b = self.num, self.den
        if c is ONE and d is ONE:
            return self
        if not a.ints or not c.ints:
            return _ZERO_RF
        a, d, _ = _cancel(a, d)
        c, b, _ = _cancel(c, b)
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
        return self._times(*_over_monic(other.den, other.num))

    def __rtruediv__(self, other: RationalFunction | Polynomial | Scalar) -> RationalFunction:
        other = _as_ratfn(other)
        return NotImplemented if other is NotImplemented else other / self

    def diff(self) -> RationalFunction:
        """(a/b)' = (a'*(b/g) - a*(b'/g)) / (b*(b/g)) for g = gcd(b, b'), reduced in characteristic 0."""
        a, b = self.num, self.den
        if b.degree <= 0:
            return RationalFunction._reduced(a.diff(), ONE)
        b1, db, _ = _cancel(b, b.diff())
        return RationalFunction._reduced(a.diff() * b1 - a * db, b * b1)

    def to_text(self, var: str = "x") -> str:
        if self.is_polynomial:
            return self.num.to_text(var)
        num = self.num.to_text(var)
        if self.num.degree > 0:
            num = f"({num})"
        return f"{num}/({self.den.to_text(var)})"

    def __str__(self) -> str:
        return self.to_text()


_set_num, _set_den = _sealed(RationalFunction)
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


def _root_candidates(g: Polynomial) -> list[Fraction]:
    """A superset of the distinct rational roots of a square-free g, found by p-adic lifting.

    g, read as its primitive integer polynomial, has leading coefficient l
    and constant term a_0 (nonzero: x is no factor of g); a linear g gives
    its root directly.  A rational root u/v of g has u | a_0 and v | l, so
    l*u/v is an integer of absolute value at most |l*a_0|.  For the first
    prime q that does not divide l and at which every root of g mod q is
    simple, each root r mod q lifts by Newton's method to a unique root mod
    q^k; once q^k > 2|l*a_0|, the symmetric residue of l*r, divided by l, is
    the only rational root that r can be (Loos, SIAM J. Comput. 12, 1983).
    """
    ints = g.ints
    if len(ints) < 3:
        return [Fraction(-ints[0], ints[1])] if ints[1:] else []
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

    Zero roots are stripped first.  Then each candidate that
    ``_root_candidates`` finds for the square-free part is divided out while
    the division is exact; its first remainder is p at the candidate, so a
    candidate that is no root is rejected by exact arithmetic.
    """
    zeros = 0
    while zeros < p.degree and not p.ints[zeros]:
        zeros += 1
    roots = [Fraction(0)] * zeros
    current = Polynomial._raw(p.content_num, p.content_den, p.ints[zeros:])
    for root in _root_candidates(_cancel(current, current.diff())[0]):
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
    factor; both mean the input is outside the integrable class.  Once the
    denominator is known square-free, x is stripped from it and each
    candidate root is kept where Horner's rule gives zero, with no division.
    """
    quotient, remainder = divmod(r.num, r.den)
    if remainder.is_zero:
        return PartialFractions(quotient, ())
    den, dprime = r.den, r.den.diff()
    if poly_gcd(den, dprime).degree > 0:
        raise RepeatedPoleError(f"{_named('denominator', den)} has a repeated factor")
    at_zero = not den.ints[0]
    rest = Polynomial._raw(1, 1, den.ints[at_zero:])
    roots = [Fraction(0)] * at_zero + [c for c in _root_candidates(rest) if not rest(c)]
    if len(roots) < den.degree:
        residual = den // math.prod(map(linear, roots), start=ONE)
        raise IrreducibleFactorError(f"{_named('denominator factor', residual)} is irreducible over the rationals")
    terms = tuple((root, remainder(root) / dprime(root)) for root in sorted(roots))
    return PartialFractions(quotient, terms)


def _coeff_ratios(p: Polynomial) -> Iterator[tuple[int, int]]:
    """Each coefficient of p in ascending degree as a reduced numerator and positive denominator, one gcd each."""
    for c in p.ints:
        g = math.gcd(c, p.content_den)
        yield p.content_num * c // g, p.content_den // g


def _coeff_texts(p: Polynomial, latex: bool = False) -> list[str]:
    """Each coefficient of p in ascending degree as ``str(Fraction)`` prints it, or in LaTeX."""
    return [
        str(num) if den == 1 else f"{'-' * (num < 0)}\\frac{{{abs(num)}}}{{{den}}}" if latex else f"{num}/{den}"
        for num, den in _coeff_ratios(p)
    ]


def _render_poly(p: Polynomial, var: str, latex: bool) -> str:
    parts: list[str] = []
    texts = _coeff_texts(p, latex)
    for k in range(p.degree, -1, -1):
        if not p.ints[k]:
            continue
        sign, magnitude = ("-", texts[k][1:]) if texts[k][0] == "-" else ("+", texts[k])
        power = var if k == 1 else f"{var}^{{{k}}}" if latex and k > 9 else f"{var}^{k}"
        body = magnitude if k == 0 else power if magnitude == "1" else f"{magnitude}{'' if latex else '*'}{power}"
        parts.append(f"{sign} {body}" if parts else body if sign == "+" else f"-{body}")
    return " ".join(parts) or "0"
