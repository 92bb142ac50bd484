"""The printed operator catalog and the catalog's error messages, pinned.

Each kind x direction x n in 0..3 gives either the operator's text, form and
variable, or the exact ValueError text of a family that prints no such
operator.  Parameter and generation errors are pinned the same way, so a
rewrite of the catalog that changes one character of any of them fails here.
"""

from fractions import Fraction

import pytest

from ladderpoly.families import GENERATING_KINDS, KINDS, FamilySpec, generate_ladder, make_operator
from ladderpoly.identities import _RELATIONS
from ladderpoly.ladder import LOWERING, RAISING

HALF = Fraction(1, 2)

#: kind -> n -> the family parameters used for member n.
PARAMS = {
    "assoc-legendre": lambda n: {"m": n // 2},
    "gegenbauer": lambda n: {"lam": Fraction(3, 2)},
    "laguerre": lambda n: {"alpha": HALF},
    "laguerre-radial": lambda n: {"alpha": HALF},
    "coulomb-radial": lambda n: {"ell": 1},
    "oscillator-3d": lambda n: {"ell": 1},
}

#: (kind, direction, n) -> (str(op), op.form, op.var), or the ValueError text.
OPERATORS = {
    ('legendre', 'raising', 0): ('R_0 = (x^2 - 1)*D + 0', 'raising', 'x'),
    ('legendre', 'raising', 1): ('R_1 = (x^2 - 1)*D + x', 'raising', 'x'),
    ('legendre', 'raising', 2): ('R_2 = (x^2 - 1)*D + 2*x', 'raising', 'x'),
    ('legendre', 'raising', 3): ('R_3 = (x^2 - 1)*D + 3*x', 'raising', 'x'),
    ('legendre', 'lowering', 0): ('L_0 = -D*(x^2 - 1) + 0', 'lowering', 'x'),
    ('legendre', 'lowering', 1): ('L_1 = -D*(x^2 - 1) + x', 'lowering', 'x'),
    ('legendre', 'lowering', 2): ('L_2 = -D*(x^2 - 1) + 2*x', 'lowering', 'x'),
    ('legendre', 'lowering', 3): ('L_3 = -D*(x^2 - 1) + 3*x', 'lowering', 'x'),
    ('assoc-legendre', 'raising', 0): ('R_m[m=0] = ((x + 1)^(1/2) * (x - 1)^(1/2))*D + 0', 'raising', 'x'),
    ('assoc-legendre', 'raising', 1): ('R_m[m=0] = ((x + 1)^(1/2) * (x - 1)^(1/2))*D + 0', 'raising', 'x'),
    ('assoc-legendre', 'raising', 2): ('R_m[m=1] = ((x + 1)^(1/2) * (x - 1)^(1/2))*D + (-x)/(x^2 - 1) * (x + 1)^(1/2) * (x - 1)^(1/2)', 'raising', 'x'),
    ('assoc-legendre', 'raising', 3): ('R_m[m=1] = ((x + 1)^(1/2) * (x - 1)^(1/2))*D + (-x)/(x^2 - 1) * (x + 1)^(1/2) * (x - 1)^(1/2)', 'raising', 'x'),
    ('assoc-legendre', 'lowering', 0): ('L_m[m=0] = -D*(-1 * (x + 1)^(1/2) * (x - 1)^(1/2)) + 0', 'lowering', 'x'),
    ('assoc-legendre', 'lowering', 1): ('L_m[m=0] = -D*(-1 * (x + 1)^(1/2) * (x - 1)^(1/2)) + 0', 'lowering', 'x'),
    ('assoc-legendre', 'lowering', 2): ('L_m[m=1] = -D*(-1 * (x + 1)^(1/2) * (x - 1)^(1/2)) + (x)/(x^2 - 1) * (x + 1)^(1/2) * (x - 1)^(1/2)', 'lowering', 'x'),
    ('assoc-legendre', 'lowering', 3): ('L_m[m=1] = -D*(-1 * (x + 1)^(1/2) * (x - 1)^(1/2)) + (x)/(x^2 - 1) * (x + 1)^(1/2) * (x - 1)^(1/2)', 'lowering', 'x'),
    ('gegenbauer', 'raising', 0): ('C+_0 = (-x^2 + 1)*D + -2*x', 'raising', 'x'),
    ('gegenbauer', 'raising', 1): ('C+_1 = (-x^2 + 1)*D + -3*x', 'raising', 'x'),
    ('gegenbauer', 'raising', 2): ('C+_2 = (-x^2 + 1)*D + -4*x', 'raising', 'x'),
    ('gegenbauer', 'raising', 3): ('C+_3 = (-x^2 + 1)*D + -5*x', 'raising', 'x'),
    ('gegenbauer', 'lowering', 0): ('C-_0 = (-x^2 + 1)*D + 0', 'raising', 'x'),
    ('gegenbauer', 'lowering', 1): ('C-_1 = (-x^2 + 1)*D + x', 'raising', 'x'),
    ('gegenbauer', 'lowering', 2): ('C-_2 = (-x^2 + 1)*D + 2*x', 'raising', 'x'),
    ('gegenbauer', 'lowering', 3): ('C-_3 = (-x^2 + 1)*D + 3*x', 'raising', 'x'),
    ('chebyshev-T', 'raising', 0): 'chebyshev-T ladder operators require index m >= 1',
    ('chebyshev-T', 'raising', 1): ('T+_1 = (x^2 - 1)*D + x', 'raising', 'x'),
    ('chebyshev-T', 'raising', 2): ('T+_2 = (1/2*x^2 - 1/2)*D + x', 'raising', 'x'),
    ('chebyshev-T', 'raising', 3): ('T+_3 = (1/3*x^2 - 1/3)*D + x', 'raising', 'x'),
    ('chebyshev-T', 'lowering', 0): 'chebyshev-T ladder operators require index m >= 1',
    ('chebyshev-T', 'lowering', 1): ('T-_1 = (-x^2 + 1)*D + x', 'raising', 'x'),
    ('chebyshev-T', 'lowering', 2): ('T-_2 = (-1/2*x^2 + 1/2)*D + x', 'raising', 'x'),
    ('chebyshev-T', 'lowering', 3): ('T-_3 = (-1/3*x^2 + 1/3)*D + x', 'raising', 'x'),
    ('chebyshev-U', 'raising', 0): ('U+_0 = (x^2 - 1)*D + 2*x', 'raising', 'x'),
    ('chebyshev-U', 'raising', 1): ('U+_1 = (x^2 - 1)*D + 3*x', 'raising', 'x'),
    ('chebyshev-U', 'raising', 2): ('U+_2 = (x^2 - 1)*D + 4*x', 'raising', 'x'),
    ('chebyshev-U', 'raising', 3): ('U+_3 = (x^2 - 1)*D + 5*x', 'raising', 'x'),
    ('chebyshev-U', 'lowering', 0): ('U-_0 = (-x^2 + 1)*D + 0', 'raising', 'x'),
    ('chebyshev-U', 'lowering', 1): ('U-_1 = (-x^2 + 1)*D + x', 'raising', 'x'),
    ('chebyshev-U', 'lowering', 2): ('U-_2 = (-x^2 + 1)*D + 2*x', 'raising', 'x'),
    ('chebyshev-U', 'lowering', 3): ('U-_3 = (-x^2 + 1)*D + 3*x', 'raising', 'x'),
    ('laguerre', 'raising', 0): ('A+_0 = (x)*D + -x + 1/2', 'raising', 'x'),
    ('laguerre', 'raising', 1): ('A+_1 = (x)*D + -x + 3/2', 'raising', 'x'),
    ('laguerre', 'raising', 2): ('A+_2 = (x)*D + -x + 5/2', 'raising', 'x'),
    ('laguerre', 'raising', 3): ('A+_3 = (x)*D + -x + 7/2', 'raising', 'x'),
    ('laguerre', 'lowering', 0): ('A-_0 = (-x)*D + 0', 'raising', 'x'),
    ('laguerre', 'lowering', 1): ('A-_1 = (-x)*D + 1', 'raising', 'x'),
    ('laguerre', 'lowering', 2): ('A-_2 = (-x)*D + 2', 'raising', 'x'),
    ('laguerre', 'lowering', 3): ('A-_3 = (-x)*D + 3', 'raising', 'x'),
    ('hermite', 'raising', 0): ('a+ = (-1)*D + x', 'raising', 'x'),
    ('hermite', 'raising', 1): ('a+ = (-1)*D + x', 'raising', 'x'),
    ('hermite', 'raising', 2): ('a+ = (-1)*D + x', 'raising', 'x'),
    ('hermite', 'raising', 3): ('a+ = (-1)*D + x', 'raising', 'x'),
    ('hermite', 'lowering', 0): ('a- = (1)*D + x', 'raising', 'x'),
    ('hermite', 'lowering', 1): ('a- = (1)*D + x', 'raising', 'x'),
    ('hermite', 'lowering', 2): ('a- = (1)*D + x', 'raising', 'x'),
    ('hermite', 'lowering', 3): ('a- = (1)*D + x', 'raising', 'x'),
    ('laguerre-radial', 'raising', 0): ('A+_0 = (1/2*r)*D + -r^2 + 1/2', 'raising', 'r'),
    ('laguerre-radial', 'raising', 1): ('A+_1 = (1/2*r)*D + -r^2 + 3/2', 'raising', 'r'),
    ('laguerre-radial', 'raising', 2): ('A+_2 = (1/2*r)*D + -r^2 + 5/2', 'raising', 'r'),
    ('laguerre-radial', 'raising', 3): ('A+_3 = (1/2*r)*D + -r^2 + 7/2', 'raising', 'r'),
    ('laguerre-radial', 'lowering', 0): ('A-_0 = (-1/2*r)*D + 0', 'raising', 'r'),
    ('laguerre-radial', 'lowering', 1): ('A-_1 = (-1/2*r)*D + 1', 'raising', 'r'),
    ('laguerre-radial', 'lowering', 2): ('A-_2 = (-1/2*r)*D + 2', 'raising', 'r'),
    ('laguerre-radial', 'lowering', 3): ('A-_3 = (-1/2*r)*D + 3', 'raising', 'r'),
    ('coulomb-radial', 'raising', 0): ('A+_l[1] = (1)*D + 2/(r)', 'raising', 'r'),
    ('coulomb-radial', 'raising', 1): ('A+_l[1] = (1)*D + 2/(r)', 'raising', 'r'),
    ('coulomb-radial', 'raising', 2): ('A+_l[1] = (1)*D + 2/(r)', 'raising', 'r'),
    ('coulomb-radial', 'raising', 3): ('A+_l[1] = (1)*D + 2/(r)', 'raising', 'r'),
    ('coulomb-radial', 'lowering', 0): 'coulomb-radial has no printed lowering operator',
    ('coulomb-radial', 'lowering', 1): 'coulomb-radial has no printed lowering operator',
    ('coulomb-radial', 'lowering', 2): 'coulomb-radial has no printed lowering operator',
    ('coulomb-radial', 'lowering', 3): 'coulomb-radial has no printed lowering operator',
    ('oscillator-3d', 'raising', 0): ('a+_l[1] = (1)*D + (1/2*r^2 + 2)/(r)', 'raising', 'r'),
    ('oscillator-3d', 'raising', 1): ('a+_l[1] = (1)*D + (1/2*r^2 + 2)/(r)', 'raising', 'r'),
    ('oscillator-3d', 'raising', 2): ('a+_l[1] = (1)*D + (1/2*r^2 + 2)/(r)', 'raising', 'r'),
    ('oscillator-3d', 'raising', 3): ('a+_l[1] = (1)*D + (1/2*r^2 + 2)/(r)', 'raising', 'r'),
    ('oscillator-3d', 'lowering', 0): 'oscillator-3d has no printed lowering operator',
    ('oscillator-3d', 'lowering', 1): 'oscillator-3d has no printed lowering operator',
    ('oscillator-3d', 'lowering', 2): 'oscillator-3d has no printed lowering operator',
    ('oscillator-3d', 'lowering', 3): 'oscillator-3d has no printed lowering operator',
}

#: (kind, n, parameters, ValueError text) for every rejected FamilySpec.
SPEC_ERRORS = [
    ("jacobi", 1, {}, "unknown family kind: 'jacobi'"),
    ("legendre", -1, {}, "index n must be a nonnegative integer"),
    ("legendre", 1.0, {}, "index n must be a nonnegative integer"),
    ("assoc-legendre", 2, {}, "assoc-legendre requires an order m with 0 <= m <= n"),
    ("assoc-legendre", 2, {"m": 3}, "assoc-legendre requires an order m with 0 <= m <= n"),
    ("assoc-legendre", 2, {"m": -1}, "assoc-legendre requires an order m with 0 <= m <= n"),
    ("legendre", 2, {"m": 1}, "legendre takes no order m"),
    ("gegenbauer", 2, {}, "gegenbauer requires a nonzero rational parameter"),
    ("gegenbauer", 2, {"lam": Fraction(0)}, "gegenbauer requires a nonzero rational parameter"),
    ("legendre", 2, {"lam": HALF}, "legendre takes no lambda parameter"),
    ("laguerre", 2, {}, "laguerre requires a rational alpha > -1"),
    ("laguerre", 2, {"alpha": Fraction(-3, 2)}, "laguerre requires a rational alpha > -1"),
    ("laguerre-radial", 2, {}, "laguerre-radial requires a rational alpha > -1"),
    ("legendre", 2, {"alpha": Fraction(1)}, "legendre takes no alpha parameter"),
    ("hermite", 2, {"alpha": Fraction(1)}, "hermite takes no alpha parameter"),
    ("coulomb-radial", 1, {}, "coulomb-radial requires an integer ell >= 0"),
    ("coulomb-radial", 1, {"ell": -1}, "coulomb-radial requires an integer ell >= 0"),
    ("oscillator-3d", 1, {}, "oscillator-3d requires an integer ell >= 0"),
    ("legendre", 2, {"ell": 1}, "legendre takes no ell parameter"),
    ("legendre", 2, {"m": 1, "alpha": HALF}, "legendre takes no order m"),
    ("gegenbauer", 2, {"lam": HALF, "alpha": HALF}, "gegenbauer takes no alpha parameter"),
    ("legendre", True, {}, "index n must be a nonnegative integer"),
]

#: kind -> the ValueError text of generate_ladder on a non-generating kind.
GENERATION_ERRORS = {
    "assoc-legendre": "family 'assoc-legendre' has no polynomial ladder generation; use generate_assoc_legendre",
    "coulomb-radial": "family 'coulomb-radial' has no polynomial ladder generation",
    "oscillator-3d": "family 'oscillator-3d' has no polynomial ladder generation",
}


def member(kind, n):
    return FamilySpec(kind, n, **PARAMS.get(kind, lambda n: {})(n))


@pytest.mark.parametrize("kind,direction,n", list(OPERATORS))
def test_operator_pinned(kind, direction, n):
    expected = OPERATORS[kind, direction, n]
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            make_operator(member(kind, n), direction)
        assert str(err.value) == expected
    else:
        op = make_operator(member(kind, n), direction)
        assert (str(op), op.form, op.var) == expected


def test_unknown_direction():
    with pytest.raises(ValueError) as err:
        make_operator(FamilySpec("legendre", 1), "sideways")
    assert str(err.value) == "unknown direction: 'sideways'"


@pytest.mark.parametrize("kind,n,params,message", SPEC_ERRORS)
def test_spec_error_pinned(kind, n, params, message):
    with pytest.raises(ValueError) as err:
        FamilySpec(kind, n, **params)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", sorted(GENERATION_ERRORS))
def test_generation_error_pinned(kind):
    with pytest.raises(ValueError) as err:
        generate_ladder(member(kind, 2))
    assert str(err.value) == GENERATION_ERRORS[kind]


def test_latex_symbols_exactly_where_gen_works():
    with_symbol = {kind for kind in KINDS if member(kind, 0).symbol is not None}
    assert with_symbol == {*GENERATING_KINDS, "assoc-legendre"}


def test_relation_rows_name_catalogued_operators():
    for rows in _RELATIONS.values():
        for _, least, specs, relations in rows:
            for spec in specs:
                assert spec.kind in KINDS
                for _, direction, op_offset, *_ in relations:
                    assert direction in (RAISING, LOWERING)
                    make_operator(spec.with_n(least + op_offset), direction)
