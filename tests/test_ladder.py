import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from ladderpoly.algebra import ONE, Polynomial, RationalFunction, X, linear
from ladderpoly.families import FamilySpec, generate_ladder, make_operator, oracle_recurrence, qpow
from ladderpoly.ladder import (
    DIFF,
    LOWERING,
    OutOfClassError,
    RAISING,
    Factorization,
    LadderOperator,
    apply_chain,
    factorize,
    verify_factorization,
)
from ladderpoly import families, verify
from ladderpoly.parsing import parse_expression
from ladderpoly.verify import random_drifts, representative_operators, standard_testers, suite_factorization
from ladderpoly.weighted import WeightedExpression, as_weighted

from helpers import reference_factorization_instances

X_SQ_MINUS_1 = Polynomial.of(-1, 0, 1)

#: kind -> the family parameters of the checks that cover every catalog row.
CATALOG_PARAMS = {
    "assoc-legendre": {"m": 2},
    "gegenbauer": {"lam": Fraction(3, 2)},
    "laguerre": {"alpha": Fraction(1, 2)},
    "laguerre-radial": {"alpha": Fraction(1, 2)},
    "coulomb-radial": {"ell": 1},
    "oscillator-3d": {"ell": 1},
}


def w_poly(p):
    return as_weighted(p)


def legendre(n):
    return oracle_recurrence(FamilySpec("legendre", n))


class TestApplyOperator:
    def test_legendre_raising_on_constant(self):
        r1 = make_operator(FamilySpec("legendre", 1), RAISING)
        assert r1.apply(as_weighted(1)).as_polynomial() == X

    def test_legendre_raising_r2(self):
        r2 = make_operator(FamilySpec("legendre", 2), RAISING)
        # R_2 x = (x^2-1) + 2x^2 = 3x^2 - 1 = 2 P_2 by the recurrence oracle
        assert r2.apply(w_poly(X)).as_polynomial() == legendre(2) * 2

    def test_laguerre_raising_base_step(self):
        plus = make_operator(FamilySpec("laguerre", 1, alpha=Fraction(1, 2)), RAISING)
        result = plus.apply(as_weighted(1)).as_polynomial()
        assert result == oracle_recurrence(FamilySpec("laguerre", 1, alpha=Fraction(1, 2)))

    @pytest.mark.parametrize("form", [RAISING, LOWERING])
    def test_coefficients_in_different_weight_cells_are_refused(self, form):
        # b/a is then not rational: no split exists, and a*u' + b*u cannot be added up
        b = w_poly(X) * WeightedExpression.power(5, Fraction(1, 3))
        with pytest.raises(ValueError, match=r"^operator coefficients in different weight cells: x\^2 - 1 vs "):
            LadderOperator(w_poly(X_SQ_MINUS_1), b, form)
        assert LadderOperator(w_poly(X_SQ_MINUS_1) * b, b, form).b == b
        assert LadderOperator(b, as_weighted(0), form).b.is_zero

    def test_lowering_form_is_composition(self):
        ln = LadderOperator(w_poly(X_SQ_MINUS_1), w_poly(X * 4), LOWERING)
        # -( (x^2-1) u )' + 4x u at u = x: -(x^3-x)' + 4x^2 = x^2 + 1
        assert ln.apply(w_poly(X)).as_polynomial() == Polynomial.of(1, 0, 1)

    @pytest.mark.parametrize("kind", families.KINDS)
    def test_apply_is_the_written_composition(self, kind):
        # apply reads the expansion A D + B; the written lowering shape differentiates a*u
        for direction in (RAISING, LOWERING) if families._OPERATORS[kind][5] else (RAISING,):
            op = make_operator(FamilySpec(kind, 3, **CATALOG_PARAMS.get(kind, {})), direction)
            for u in standard_testers():
                written = op.a * u.diff() if op.form == RAISING else -(op.a * u).diff()
                assert op.apply(u) == written + op.b * u, (str(op), str(u))


class TestFactorize:
    def test_readme_quick_start(self):
        spec = FamilySpec("legendre", 4)
        assert str(generate_ladder(spec)) == "35/8*x^4 - 15/4*x^2 + 3/8"
        op = make_operator(spec, RAISING)
        assert str(op) == "R_4 = (x^2 - 1)*D + 4*x"
        fac = factorize(op, parse_expression("x^2 + 1"))
        assert str(fac.g2) == "(x^4 - 2*x^2 + 1) * exp(-1/3*x^3 - x)"

    def test_legendre_profile(self):
        for n in (1, 2, 3, 5):
            op = make_operator(FamilySpec("legendre", n), RAISING)
            fac = factorize(op, 0)
            assert fac.g2 == qpow(Fraction(n, 2))
            assert fac.f1 == qpow(1 - Fraction(n, 2))
            assert fac.h.is_zero
            assert fac.f1 * fac.g2 == op.a
            assert fac.g2.log_derivative() == RationalFunction(X * n, X_SQ_MINUS_1)

    def test_oscillator(self):
        op = make_operator(FamilySpec("hermite", 0), RAISING)
        fac = factorize(op, 0)
        assert fac.g2 == WeightedExpression.exp_of(X * X * Fraction(-1, 2))
        assert fac.f1 == -WeightedExpression.exp_of(X * X * Fraction(1, 2))

    def test_assoc_legendre_m_profile(self):
        for m, n in ((1, 2), (2, 3), (3, 4)):
            op = make_operator(FamilySpec("assoc-legendre", n, m=m), RAISING)
            fac = factorize(op, 0)
            assert fac.g2.scalar_ratio(qpow(Fraction(-m, 2))) == 1

    def test_laguerre_with_drift(self):
        alpha = Fraction(1, 2)
        op = make_operator(FamilySpec("laguerre", 3, alpha=alpha), RAISING)
        t = RationalFunction(ONE, X)
        fac = factorize(op, t)
        expected = (
            WeightedExpression.power(0, alpha + 3 - 1)
            * WeightedExpression.exp_of(-X)
        )
        assert fac.g2 == expected
        assert verify_factorization(op, fac, standard_testers()).ok

    def test_lowering_factorization_invariant(self):
        op = make_operator(FamilySpec("legendre", 4), LOWERING)
        t = RationalFunction(X, ONE)
        fac = factorize(op, t)
        # log f1 = (a'-b)/a + t
        expected = (op.a.diff() - op.b) / op.a
        assert fac.f1.log_derivative() == expected.coeff + t
        assert fac.f1 * fac.g2 == op.a
        assert verify_factorization(op, fac, standard_testers()).ok

    def test_out_of_class_repeated_pole(self):
        op = make_operator(FamilySpec("legendre", 2), RAISING)
        with pytest.raises(OutOfClassError):
            factorize(op, RationalFunction(ONE, (X - 1) ** 2))

    def test_out_of_class_irrational_pole(self):
        op = make_operator(FamilySpec("legendre", 2), RAISING)
        with pytest.raises(OutOfClassError):
            factorize(op, RationalFunction(ONE, Polynomial.of(1, 0, 1)))

    @pytest.mark.parametrize("form", [RAISING, LOWERING])
    def test_out_of_class_error_names_the_drift_else_the_integrand(self, form):
        op = make_operator(FamilySpec("legendre", 2), form)
        with pytest.raises(OutOfClassError, match=r"denominator x\^2 - x \+ 1/4 has a repeated factor$"):
            factorize(op, RationalFunction(ONE, linear(Fraction(1, 2)) ** 2))
        # b/a = 1/x^2 has the double pole, t = 1/(x - 1) has none: the integrand is named
        op = LadderOperator(as_weighted(X * X), as_weighted(1), form)
        with pytest.raises(OutOfClassError, match=r"denominator x\^3 - x\^2 has a repeated factor$"):
            factorize(op, RationalFunction(ONE, linear(1)))


class TestVerifyFactorization:
    def test_legendre_tester_cube(self):
        op = make_operator(FamilySpec("legendre", 3), RAISING)
        fac = factorize(op, 0)
        report = verify_factorization(op, fac, [w_poly(X**3)])
        assert report.ok

    def test_legendre_polynomial_drift(self):
        op = make_operator(FamilySpec("legendre", 3), RAISING)
        fac = factorize(op, Polynomial.of(1, 0, 1))
        testers = [as_weighted(1), w_poly(X), w_poly(X_SQ_MINUS_1)]
        assert verify_factorization(op, fac, testers).ok

    def test_corrupted_g2_reported(self):
        op = make_operator(FamilySpec("legendre", 3), RAISING)
        fac = factorize(op, 0)
        bad = Factorization(fac.f1, fac.g2 * w_poly(X - 1), fac.h, fac.drift, fac.form)
        report = verify_factorization(op, bad, standard_testers())
        assert not report.ok
        assert report.first_failure.discrepancy is not None

    def test_weight_mismatch_is_a_failed_tester(self):
        op = make_operator(FamilySpec("legendre", 3), RAISING)
        fac = factorize(op, 0)
        bad = dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3)))
        report = verify_factorization(op, bad, standard_testers())
        assert report.summary() == "0/5 testers exact; first failure on 1"
        assert report.first_failure.discrepancy == "weight structure differs: (3*x) * (x - 5)^(1/3) vs 3*x"
        assert report.checks[-1].discrepancy == (
            "weight structure differs: (-x^2 + 3*x + 1) * (x - 5)^(1/3) * exp(-x) vs (-x^2 + 3*x + 1) * exp(-x)"
        )

    def test_weight_mismatch_with_a_drift_is_a_failed_tester(self):
        op = make_operator(FamilySpec("legendre", 3), RAISING)
        fac = factorize(op, 1)
        bad = dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3)))
        report = verify_factorization(op, bad, standard_testers())
        assert report.summary() == "0/5 testers exact; first failure on 1"
        assert report.first_failure.discrepancy == (
            "weight structure differs: (-x^2 + 3*x + 1) * (x - 5)^(1/3) vs x^2 - 1"
        )

    @pytest.mark.parametrize(
        "drift,discrepancy",
        [
            (0, "weight structure differs: (-r^2 + 5/2) * (r - 5)^(1/3) vs -r^2 + 5/2"),
            (1, "weight structure differs: (-r^2 - 1/2*r + 5/2) * (r - 5)^(1/3) vs 1/2*r"),
        ],
        ids=["no-drift", "drift"],
    )
    def test_weight_mismatch_is_named_in_the_operator_variable(self, drift, discrepancy):
        op = make_operator(FamilySpec("laguerre-radial", 2, alpha=Fraction(1, 2)), RAISING)
        fac = factorize(op, drift)
        bad = dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3)))
        report = verify_factorization(op, bad, standard_testers())
        assert report.summary() == "0/5 testers exact; first failure on 1"
        assert report.first_failure.discrepancy == discrepancy

    def test_every_representative_with_random_drifts(self):
        testers = standard_testers()
        for kind, op in representative_operators():
            for drift in random_drifts(5, seed=42):
                fac = factorize(op, drift)
                assert fac.f1 * fac.g2 == op.a, kind
                assert fac.h == op.a * as_weighted(RationalFunction(drift)), kind
                assert verify_factorization(op, fac, testers).ok, kind

    def test_lowering_operators_round_trip(self):
        specs = [
            (FamilySpec("legendre", 4), LOWERING),
            (FamilySpec("assoc-legendre", 4, m=2), LOWERING),
            (FamilySpec("laguerre", 3, alpha=Fraction(0)), LOWERING),
            (FamilySpec("chebyshev-T", 3), LOWERING),
            (FamilySpec("chebyshev-U", 3), LOWERING),
            (FamilySpec("gegenbauer", 3, lam=Fraction(2)), LOWERING),
            (FamilySpec("hermite", 3), LOWERING),
            (FamilySpec("laguerre-radial", 3, alpha=Fraction(1, 2)), LOWERING),
        ]
        testers = standard_testers()
        for spec, direction in specs:
            op = make_operator(spec, direction)
            for drift in random_drifts(3, seed=9):
                fac = factorize(op, drift)
                assert verify_factorization(op, fac, testers).ok, spec.kind

    def test_no_tester_checked_does_not_pass(self):
        op = make_operator(FamilySpec("legendre", 3), RAISING)
        report = verify_factorization(op, factorize(op, 0), [])
        assert not report.ok
        assert report.first_failure is None
        assert report.summary() == "0/0 testers exact; nothing checked"

    @pytest.mark.parametrize(
        "spec,direction",
        [
            (FamilySpec("legendre", 3), RAISING),
            (FamilySpec("legendre", 3), LOWERING),
            (FamilySpec("gegenbauer", 3, lam=Fraction(3, 2)), LOWERING),
            (FamilySpec("hermite", 2), RAISING),
            (FamilySpec("assoc-legendre", 3, m=2), LOWERING),
        ],
        ids=[
            "legendre-raising", "legendre-lowering", "gegenbauer-lowering", "hermite-raising", "assoc-legendre-lowering"
        ],
    )
    def test_a_check_differentiates_the_split_once(self, monkeypatch, spec, direction):
        # Each factor carries a weight here, and so does the assoc-legendre a.  The check
        # reads the split's slope as lead * (inner'/inner): it takes the rational
        # log-derivative of the inner factor once and no weighted derivative at all, of a
        # factor or a tester, since a correct split is checked as an operator identity.
        op = make_operator(spec, direction)
        fac = factorize(op, RationalFunction(ONE, linear(2)))
        diffs, log_derivatives = [], []
        for name, calls in (("diff", diffs), ("log_derivative", log_derivatives)):
            method = getattr(WeightedExpression, name)
            monkeypatch.setattr(WeightedExpression, name, lambda self, m=method, c=calls: c.append(self) or m(self))
        assert verify_factorization(op, fac, standard_testers()).ok
        assert diffs == []
        assert log_derivatives == [fac.g2 if op.form == RAISING else fac.f1]
        log_derivatives.clear()
        assert verify_factorization(op, fac, standard_testers()).ok  # the expansions are kept
        assert (diffs, log_derivatives) == ([], [])

    @pytest.mark.parametrize("kind", families.KINDS)
    def test_only_a_wrong_split_is_applied_to_the_testers(self, monkeypatch, kind):
        # every catalog row in each direction it prints: a correct split calls neither
        # apply, a wrong one calls each once per tester
        calls = []

        def counted(apply):
            return lambda self, u: calls.append(type(self)) or apply(self, u)

        for cls in (LadderOperator, Factorization):
            monkeypatch.setattr(cls, "apply", counted(cls.apply))
        lowering = families._OPERATORS[kind][5]
        for direction in (RAISING, LOWERING) if lowering else (RAISING,):
            op = make_operator(FamilySpec(kind, 3, **CATALOG_PARAMS.get(kind, {})), direction)
            fac = factorize(op, RationalFunction(ONE, linear(2)))
            assert verify_factorization(op, fac, standard_testers()).ok
            assert calls == [], direction
            for bad in (dataclasses.replace(fac, h=fac.h * 2), dataclasses.replace(fac, g2=fac.g2 * w_poly(X - 1))):
                report = verify_factorization(op, bad, standard_testers())
                assert report.summary() == "0/5 testers exact; first failure on 1"
                assert Counter(calls) == {LadderOperator: 5, Factorization: 5}, direction
                calls.clear()

    def test_h_zero_reduction_matches_operator(self):
        # factorize with t = 0 then apply-as-factorized equals the plain operator
        for kind, op in representative_operators():
            fac = factorize(op, 0)
            for tester in standard_testers():
                assert (fac.apply(tester) - op.apply(tester)).is_zero, kind


class TestFactorizationSuite:
    """The suite checks every (operator, drift, tester) triple as the direct reference does."""

    @staticmethod
    def instances():
        (report,) = suite_factorization()
        return [(inst.params, inst.ok, inst.discrepancy) for inst in report.instances]

    def test_matches_the_direct_reference(self):
        expected = reference_factorization_instances()
        assert len(expected) == 1250 and all(ok for _, ok, _ in expected)
        assert self.instances() == expected

    @pytest.mark.parametrize(
        "corrupt,failures",
        [
            (lambda fac, op: fac.h * 2, 1200),  # drift 24 is zero, and so is its doubled h
            (lambda fac, op: fac.h + op.a, 1250),
        ],
        ids=["doubled-h", "shifted-h"],
    )
    def test_every_drift_is_checked(self, monkeypatch, corrupt, failures):
        def corrupted(op, drift):
            fac = factorize(op, drift)
            return dataclasses.replace(fac, h=corrupt(fac, op))

        monkeypatch.setattr(verify, "factorize", corrupted)
        expected = reference_factorization_instances(corrupted)
        assert sum(not ok for _, ok, _ in expected) == failures
        assert self.instances() == expected


class TestApplyChain:
    def test_classical_rodrigues(self):
        for n in range(11):
            chain = apply_chain([DIFF] * n, w_poly(X_SQ_MINUS_1**n))
            assert (chain * Fraction(1, 2**n * _fact(n))).as_polynomial() == legendre(n)

    def test_chebyshev_u_chain_values(self):
        for n in range(1, 9):
            steps = [qpow(Fraction(1 - n, 2)), DIFF] + [qpow(Fraction(3, 2)), DIFF] * (n - 1)
            result = apply_chain(steps, w_poly(X_SQ_MINUS_1))
            expected = oracle_recurrence(FamilySpec("chebyshev-U", n)) * _fact(n)
            assert result.as_polynomial() == expected

    def test_empty_chain_identity(self):
        u = w_poly(X + 1)
        assert apply_chain([], u) == u


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out
