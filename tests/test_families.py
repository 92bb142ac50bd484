import inspect
import math
import sys
from fractions import Fraction

import pytest

from ladderpoly.algebra import ONE, Polynomial, RationalFunction, X, ZERO
from ladderpoly.families import (
    FamilySpec,
    X_SQ_MINUS_1,
    assoc_legendre_iterated,
    drift_chain,
    generate_assoc_legendre,
    generate_ladder,
    hermite_from_laguerre,
    make_operator,
    oracle_recurrence,
    qpow,
    rodrigues_chain,
    rodrigues_standard,
)
from ladderpoly.ladder import DIFF, LOWERING, RAISING
from ladderpoly.parsing import MAX_COEFFICIENT_BITS
from ladderpoly.weighted import as_weighted

from helpers import resolve_legendre_lowering_offset

HALF = Fraction(1, 2)


def spec(kind, n, **kw):
    return FamilySpec(kind, n, **kw)


class TestFamilySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("legendre", -1)
        with pytest.raises(ValueError):
            FamilySpec("assoc-legendre", 2, m=3)
        with pytest.raises(ValueError):
            FamilySpec("gegenbauer", 2, lam=Fraction(0))
        with pytest.raises(ValueError):
            FamilySpec("laguerre", 2, alpha=Fraction(-3, 2))
        with pytest.raises(ValueError):
            FamilySpec("legendre", 2, alpha=Fraction(1))
        with pytest.raises(ValueError):
            FamilySpec("coulomb-radial", 1, ell=-1)

    @pytest.mark.parametrize("kind,name,value", [
        ("oscillator-3d", "ell", 1.5),
        ("oscillator-3d", "ell", Fraction(1, 2)),
        ("coulomb-radial", "ell", True),
        ("assoc-legendre", "m", Fraction(1, 2)),
        ("assoc-legendre", "m", 1.0),
        ("laguerre", "alpha", 0.1),
        ("laguerre-radial", "alpha", "1/2"),
        ("gegenbauer", "lam", 0.5),
    ])
    def test_inexact_parameters_rejected(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{kind} requires "):
            FamilySpec(kind, 2, **{name: value})

    @pytest.mark.parametrize("kind,name,exact", [
        ("gegenbauer", "lam", Fraction),
        ("laguerre", "alpha", Fraction),
        ("laguerre-radial", "alpha", Fraction),
        ("coulomb-radial", "ell", int),
    ])
    def test_parameter_size_bound(self, kind, name, exact):
        # numerator and denominator each within the parser's coefficient budget, 4096 bits
        widest = 2**MAX_COEFFICIENT_BITS - 1
        inside = [widest] + ([Fraction(1, widest), Fraction(widest, widest - 2)] if exact is Fraction else [])
        outside = [widest + 1] + ([Fraction(1, widest + 1)] if exact is Fraction else [])
        for value in inside:
            assert getattr(FamilySpec(kind, 2, **{name: value}), name) == value
        label = {"lam": "lambda"}.get(name, name)
        for value in outside:
            with pytest.raises(ValueError, match=f"^{kind} requires {label} = p/q with p, q within 4096 bits$"):
                FamilySpec(kind, 2, **{name: value})

    def test_integer_parameters_become_fractions(self):
        assert type(FamilySpec("laguerre", 2, alpha=1).alpha) is Fraction
        assert type(FamilySpec("gegenbauer", 2, lam=2).lam) is Fraction

    def test_radial_var(self):
        assert FamilySpec("laguerre-radial", 1, alpha=Fraction(0)).var == "r"
        assert FamilySpec("legendre", 1).var == "x"


class TestMakeOperator:
    def test_legendre_printed_coefficients(self):
        op = make_operator(spec("legendre", 3), RAISING)
        assert op.a.as_polynomial() == X_SQ_MINUS_1
        assert op.b.as_polynomial() == X * 3
        assert op.form == RAISING

    def test_chebyshev_u_printed_coefficients(self):
        op = make_operator(spec("chebyshev-U", 2), RAISING)
        assert op.a.as_polynomial() == X_SQ_MINUS_1
        assert op.b.as_polynomial() == X * 4

    def test_coulomb_radial(self):
        op = make_operator(spec("coulomb-radial", 0, ell=0), RAISING)
        assert op.a == as_weighted(1)
        assert op.b.coeff == RationalFunction(ONE, X)
        with pytest.raises(ValueError):
            make_operator(spec("coulomb-radial", 0, ell=0), LOWERING)

    def test_laguerre_radial_printed(self):
        op = make_operator(spec("laguerre-radial", 2, alpha=HALF), RAISING)
        assert op.a.coeff == RationalFunction(X * HALF)
        assert op.b.as_polynomial() == Polynomial.of(HALF + 2, 0, -1)

    def test_chebyshev_t_needs_positive_index(self):
        with pytest.raises(ValueError):
            make_operator(spec("chebyshev-T", 0), RAISING)


class TestOracles:
    def test_legendre_base(self):
        assert oracle_recurrence(spec("legendre", 1)) == X

    def test_chebyshev_t3(self):
        assert oracle_recurrence(spec("chebyshev-T", 3)) == Polynomial.of(0, -3, 0, 4)

    def test_laguerre_alpha0_n2(self):
        assert oracle_recurrence(spec("laguerre", 2, alpha=Fraction(0))) == Polynomial.of(
            1, -2, HALF
        )

    def test_hermite_values(self):
        assert oracle_recurrence(spec("hermite", 2)) == Polynomial.of(-2, 0, 4)
        assert oracle_recurrence(spec("hermite", 3)) == Polynomial.of(0, -12, 0, 8)

    def test_radial_is_composition(self):
        radial = oracle_recurrence(spec("laguerre-radial", 2, alpha=HALF))
        plain = oracle_recurrence(spec("laguerre", 2, alpha=HALF))
        assert radial == plain.compose(X * X)


class TestGenerateLadder:
    def test_legendre_n2(self):
        assert generate_ladder(spec("legendre", 2)) == Polynomial.of(-HALF, 0, Fraction(3, 2))

    def test_chebyshev_u_n2(self):
        assert generate_ladder(spec("chebyshev-U", 2)) == Polynomial.of(-1, 0, 4)

    def test_gegenbauer_half_is_legendre(self):
        for n in range(9):
            assert generate_ladder(spec("gegenbauer", n, lam=HALF)) == oracle_recurrence(
                spec("legendre", n)
            )

    def test_oracle_equivalence_sample(self):
        cases = [
            spec("legendre", 12),
            spec("chebyshev-T", 12),
            spec("chebyshev-U", 12),
            spec("hermite", 12),
            spec("gegenbauer", 9, lam=Fraction(2)),
            spec("laguerre", 9, alpha=HALF),
            spec("laguerre-radial", 7, alpha=HALF),
        ]
        for s in cases:
            assert generate_ladder(s) == oracle_recurrence(s)

    def test_cold_call_deeper_than_recursion_limit(self):
        generate_ladder.cache_clear()
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        n = depth + 250
        sys.setrecursionlimit(depth + 200)
        try:
            generated = generate_ladder(spec("chebyshev-T", n))
        finally:
            sys.setrecursionlimit(limit)
        assert generated == oracle_recurrence(spec("chebyshev-T", n))

    def test_unsupported_kinds(self):
        with pytest.raises(ValueError):
            generate_ladder(spec("assoc-legendre", 2, m=1))
        with pytest.raises(ValueError):
            generate_ladder(spec("coulomb-radial", 1, ell=0))


class TestRodriguesStandard:
    def test_legendre_n3(self):
        assert rodrigues_standard(spec("legendre", 3)) == Polynomial.of(0, Fraction(-3, 2), 0, Fraction(5, 2))

    def test_chebyshev_u_n2(self):
        assert rodrigues_standard(spec("chebyshev-U", 2)) == Polynomial.of(-1, 0, 4)

    def test_gegenbauer_lambda1_n1(self):
        assert rodrigues_standard(spec("gegenbauer", 1, lam=Fraction(1))) == X * 2

    def test_against_oracle(self):
        for n in range(9):
            for s in (
                spec("legendre", n),
                spec("chebyshev-T", n),
                spec("chebyshev-U", n),
                spec("gegenbauer", n, lam=Fraction(3, 2)),
                spec("laguerre", n, alpha=Fraction(-1, 2)),
            ):
                assert rodrigues_standard(s) == oracle_recurrence(s), s

    def test_past_the_weight_fold_bound(self):
        # weights of integer degree above 512, built as polynomial powers
        n = 257
        for s in (
            spec("legendre", n),
            spec("chebyshev-U", n),
            spec("chebyshev-T", n),
            spec("gegenbauer", n, lam=Fraction(3, 2)),
        ):
            assert rodrigues_standard(s) == oracle_recurrence(s), s
        for variant in ("h0-chain", "one-step-split"):
            assert rodrigues_chain(spec("legendre", n), variant) == oracle_recurrence(spec("legendre", n))
        radial = spec("laguerre-radial", n, alpha=HALF)
        assert rodrigues_chain(radial, "h0-chain") == oracle_recurrence(radial)

    @pytest.mark.parametrize(
        "n,lam,variant",
        [(2, -1, "standard"), (1, Fraction(-1, 2), "standard"), (3, -1, "one-step-split")],
    )
    def test_undefined_gegenbauer_scale_at_negative_lambda(self, n, lam, variant):
        # the scale divides by a vanishing Pochhammer symbol, though the member exists
        s = spec("gegenbauer", n, lam=Fraction(lam))
        assert generate_ladder(s) == oracle_recurrence(s)
        message = f"^the {variant} form of gegenbauer is undefined at n = {n}, lambda = {lam}$"
        with pytest.raises(ValueError, match=message):
            rodrigues_standard(s) if variant == "standard" else rodrigues_chain(s, variant)

    def test_family_without_standard_form(self):
        with pytest.raises(ValueError, match="family 'hermite' has no printed standard form"):
            rodrigues_standard(spec("hermite", 2))


class TestRodriguesChain:
    def test_chebyshev_u_n1_h0(self):
        assert rodrigues_chain(spec("chebyshev-U", 1), "h0-chain") == X * 2

    def test_laguerre_radial_alpha0_n1(self):
        got = rodrigues_chain(spec("laguerre-radial", 1, alpha=Fraction(0)), "h0-chain")
        assert got == Polynomial.of(1, 0, -1)  # 1 - r^2

    def test_hermite_radial_h2(self):
        got = rodrigues_chain(spec("hermite", 2), "h0-chain")
        assert got == Polynomial.of(-2, 0, 4)  # 4r^2 - 2

    def test_all_variants_match_oracle(self):
        for n in range(1, 8):
            assert rodrigues_chain(spec("legendre", n), "h0-chain") == oracle_recurrence(spec("legendre", n))
            assert rodrigues_chain(spec("legendre", n), "one-step-split") == oracle_recurrence(spec("legendre", n))
            assert rodrigues_chain(spec("chebyshev-U", n), "h0-chain") == oracle_recurrence(spec("chebyshev-U", n))
            assert rodrigues_chain(spec("chebyshev-U", n), "one-step-split") == oracle_recurrence(spec("chebyshev-U", n))
            for lam in (HALF, Fraction(1), Fraction(2)):
                assert rodrigues_chain(spec("gegenbauer", n, lam=lam), "h0-chain") == oracle_recurrence(spec("gegenbauer", n, lam=lam))
                assert rodrigues_chain(spec("gegenbauer", n, lam=lam), "one-step-split") == oracle_recurrence(spec("gegenbauer", n, lam=lam))
        for n in range(2, 8):
            assert rodrigues_chain(spec("chebyshev-T", n), "h0-chain") == oracle_recurrence(spec("chebyshev-T", n))
            assert rodrigues_chain(spec("chebyshev-T", n), "one-step-split") == oracle_recurrence(spec("chebyshev-T", n))
            assert rodrigues_chain(spec("hermite", n), "h0-chain") == oracle_recurrence(spec("hermite", n))

    def test_hermite_chain_matches_oracle_to_40(self):
        # both parities of the laguerre-radial reduction, well past the suite's cap of n = 12
        for n in range(2, 41):
            assert rodrigues_chain(spec("hermite", n), "h0-chain") == oracle_recurrence(spec("hermite", n))

    def test_chain_preconditions(self):
        with pytest.raises(ValueError):
            rodrigues_chain(spec("chebyshev-T", 1), "h0-chain")
        with pytest.raises(ValueError):
            rodrigues_chain(spec("hermite", 1), "h0-chain")
        with pytest.raises(ValueError):
            rodrigues_chain(spec("legendre", 3), "no-such-variant")

    def test_chain_precondition_messages(self):
        # the message names the kind that was asked for
        with pytest.raises(ValueError, match=r"^the h0-chain form of legendre needs n >= 1$"):
            rodrigues_chain(spec("legendre", 0), "h0-chain")
        with pytest.raises(ValueError, match=r"^the one-step-split form of chebyshev-U needs n >= 1$"):
            rodrigues_chain(spec("chebyshev-U", 0), "one-step-split")


class TestHermiteReductions:
    def test_even_base(self):
        assert hermite_from_laguerre(0, "even") == ONE

    def test_even_n1_is_h2(self):
        assert hermite_from_laguerre(1, "even") == Polynomial.of(-2, 0, 4)

    def test_odd_base_is_h1(self):
        assert hermite_from_laguerre(0, "odd") == X * 2

    def test_matches_oracle(self):
        for n in range(21):
            assert hermite_from_laguerre(n, "even") == oracle_recurrence(spec("hermite", 2 * n))
            assert hermite_from_laguerre(n, "odd") == oracle_recurrence(spec("hermite", 2 * n + 1))

    def test_oscillator_iteration(self):
        assert generate_ladder(spec("hermite", 0)) == ONE
        assert generate_ladder(spec("hermite", 1)) == X * 2
        assert generate_ladder(spec("hermite", 2)) == Polynomial.of(-2, 0, 4)

    def test_oscillator_scale_is_documented_constant(self):
        # the raw iteration needs no residual normalization
        for n in range(9):
            assert generate_ladder(spec("hermite", n)) == oracle_recurrence(spec("hermite", n))


class TestAssocLegendre:
    def test_n1_m1(self):
        assert generate_assoc_legendre(1, 1) == qpow(HALF)

    def test_n2_m1(self):
        assert generate_assoc_legendre(2, 1) == as_weighted(X * 3) * qpow(HALF)

    def test_m0_is_legendre(self):
        for n in range(6):
            w = generate_assoc_legendre(n, 0)
            assert w.as_polynomial() == oracle_recurrence(spec("legendre", n))

    @pytest.mark.parametrize("m", [520, 521])
    def test_order_past_the_weight_fold_limit(self, m):
        w = generate_assoc_legendre(m, m)
        top = Fraction(math.factorial(2 * m), 2**m * math.factorial(m))  # the m-th derivative of P_m
        assert w == qpow(Fraction(m % 2, 2)) * as_weighted(X_SQ_MINUS_1 ** (m // 2) * top)

    @pytest.mark.parametrize("build", [generate_assoc_legendre, assoc_legendre_iterated])
    @pytest.mark.parametrize("m", [-1, 3], ids=["negative-m", "m-above-n"])
    def test_order_outside_0_to_n_is_one_check(self, build, m):
        with pytest.raises(ValueError, match=r"^assoc-legendre requires an order m with 0 <= m <= n$"):
            build(2, m)

    def test_iterated_matches_definitional(self):
        for n in range(1, 8):
            for m in range(n + 1):
                definitional = generate_assoc_legendre(n, m)
                ratio = assoc_legendre_iterated(n, m).scalar_ratio(definitional)
                assert ratio == 1

    def test_rodrigues_row_walked_by_drift_chain(self):
        # P_n^m = (x^2-1)^(m/2) D^(n+m) (x^2-1)^n / (2^n n!), a row built here and not in the
        # catalog; drift_chain returns the weighted member, so an odd m keeps its square root
        for n in range(9):
            for m in range(n + 1):
                row = (qpow(Fraction(m, 2)), [DIFF] * (n + m), X_SQ_MINUS_1**n, Fraction(1, 2**n * math.factorial(n)))
                assert drift_chain(row)[0].scalar_ratio(generate_assoc_legendre(n, m)) == 1, (n, m)

    def test_sign_convention_unique(self):
        # flipping the sign of either coefficient of the catalog m-raising
        # operator breaks the raising relation
        from ladderpoly.ladder import LadderOperator

        n, m = 3, 1
        op = make_operator(spec("assoc-legendre", n, m=m), RAISING)
        target = generate_assoc_legendre(n, m + 1)
        source = generate_assoc_legendre(n, m)
        assert (op.apply(source) - target).is_zero
        for a, b in ((op.a, -op.b), (-op.a, op.b)):
            flipped = LadderOperator(a, b, op.form)
            assert not (flipped.apply(source) - target).is_zero


class TestEigenRelations:
    def test_legendre_raising(self):
        for n in range(1, 21):
            raised = make_operator(spec("legendre", n), RAISING).apply(
                oracle_recurrence(spec("legendre", n - 1))
            )
            assert raised.as_polynomial() == oracle_recurrence(spec("legendre", n)) * n

    def test_legendre_lowering_index_resolution(self):
        # the printed lowering relation holds with operator index n + 2 only
        assert resolve_legendre_lowering_offset(8) == 2

    def test_gegenbauer_updown(self):
        lam = Fraction(3, 2)
        for n in range(1, 21):
            c_n = oracle_recurrence(spec("gegenbauer", n, lam=lam))
            c_m = oracle_recurrence(spec("gegenbauer", n - 1, lam=lam))
            lowered = make_operator(spec("gegenbauer", n, lam=lam), LOWERING).apply(c_n)
            assert lowered.as_polynomial() == c_m * (n + 2 * lam - 1)
            raised = make_operator(spec("gegenbauer", n, lam=lam), RAISING).apply(c_m)
            assert raised.as_polynomial() == c_n * (-n)

    def test_chebyshev_updown(self):
        for n in range(0, 21):
            u_n = oracle_recurrence(spec("chebyshev-U", n))
            raised = make_operator(spec("chebyshev-U", n), RAISING).apply(u_n)
            assert raised.as_polynomial() == oracle_recurrence(spec("chebyshev-U", n + 1)) * (n + 1)
            lowered = make_operator(spec("chebyshev-U", n), LOWERING).apply(u_n)
            below = oracle_recurrence(spec("chebyshev-U", n - 1)) if n else ZERO
            assert lowered.as_polynomial() == below * (n + 1)
        for m in range(1, 21):
            t_m = oracle_recurrence(spec("chebyshev-T", m))
            assert make_operator(spec("chebyshev-T", m), RAISING).apply(t_m).as_polynomial() == oracle_recurrence(spec("chebyshev-T", m + 1))
            assert make_operator(spec("chebyshev-T", m), LOWERING).apply(t_m).as_polynomial() == oracle_recurrence(spec("chebyshev-T", m - 1))

    def test_laguerre_updown(self):
        alpha = HALF
        for n in range(1, 21):
            l_n = oracle_recurrence(spec("laguerre", n, alpha=alpha))
            l_m = oracle_recurrence(spec("laguerre", n - 1, alpha=alpha))
            raised = make_operator(spec("laguerre", n, alpha=alpha), RAISING).apply(l_m)
            assert raised.as_polynomial() == l_n * n
            lowered = make_operator(spec("laguerre", n, alpha=alpha), LOWERING).apply(l_n)
            assert lowered.as_polynomial() == l_m * (n + alpha)


class TestDifferentialEquations:
    def test_legendre_ode(self):
        for n in range(13):
            p = oracle_recurrence(spec("legendre", n))
            assert (X_SQ_MINUS_1 * p.diff()).diff() == p * (n * (n + 1))

    def test_associated_legendre_ode(self):
        # [D (x^2-1) D + m^2/(1-x^2) - n(n+1)] P_n^m = 0, checked in weighted form
        for n in range(1, 8):
            for m in range(n + 1):
                w = generate_assoc_legendre(n, m)
                term = (as_weighted(X_SQ_MINUS_1) * w.diff()).diff()
                weight = as_weighted(
                    RationalFunction(Polynomial.constant(-m * m), X_SQ_MINUS_1)
                )
                residual = term + weight * w - w * Fraction(n * (n + 1))
                assert residual.is_zero

    def test_laguerre_ode(self):
        alpha = Fraction(1, 2)
        for n in range(13):
            u = oracle_recurrence(spec("laguerre", n, alpha=alpha))
            lhs = X * u.diff().diff() + Polynomial.of(alpha + 1, -1) * u.diff() + u * n
            assert lhs.is_zero

    def test_gegenbauer_ode(self):
        lam = Fraction(2)
        for n in range(13):
            y = oracle_recurrence(spec("gegenbauer", n, lam=lam))
            lhs = X_SQ_MINUS_1 * y.diff().diff() + X * y.diff() * (2 * lam + 1) - y * (n * (2 * lam + n))
            assert lhs.is_zero

    def test_chebyshev_t_ode(self):
        for n in range(13):
            u = oracle_recurrence(spec("chebyshev-T", n))
            lhs = Polynomial.of(1, 0, -1) * u.diff().diff() - X * u.diff() + u * (n * n)
            assert lhs.is_zero
