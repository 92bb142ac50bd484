import math
from fractions import Fraction

import pytest

from ladderpoly import identities
from ladderpoly.algebra import ONE, Polynomial, RationalFunction, X, ZERO
from ladderpoly.families import FamilySpec, X_SQ_MINUS_1, chain_row, drift_chain, oracle_recurrence
from ladderpoly.identities import (
    check_eq31,
    check_eq33_eq35,
    check_eq34,
    identity_check,
    remainder_expansion,
    remainder_linear_coefficients,
    remainder_structure_report,
    remainder_term,
)
from ladderpoly.ladder import DIFF
from ladderpoly.verify import random_drifts
from ladderpoly.weighted import as_weighted

from helpers import drift_factor_chain, legendre_operator_relation_holds, probe_linear_coefficients


def legendre(n):
    return oracle_recurrence(FamilySpec("legendre", n))


class TestEq31:
    def test_n2_explicit(self):
        # (x^2-1) D^2 (x^2-1) = 2(x^2-1)
        lhs = X_SQ_MINUS_1 * X_SQ_MINUS_1.diff().diff()
        assert lhs == X_SQ_MINUS_1 * 2

    def test_n3_explicit(self):
        base = X_SQ_MINUS_1**2
        third = base.diff().diff().diff()
        assert X_SQ_MINUS_1 * third == Polynomial.of(0, -24, 0, 24)
        assert base.diff() * 6 == Polynomial.of(0, -24, 0, 24)

    def test_range(self):
        report = check_eq31(25)
        assert report.ok

    def test_boundary_instances_present(self):
        report = check_eq31(4)
        boundaries = [i for i in report.instances if "boundary" in i.params]
        assert len(boundaries) == 3 * 2 * 2  # n = 2..4, both points, both sides
        assert all(i.ok for i in boundaries)


class TestRemark:
    def test_derivative_form(self):
        assert identity_check("remark3term", 20).ok

    def test_legendre_form(self):
        assert identity_check("remark3term-legendre", 20).ok


class TestEq34:
    def test_n2_computed_value(self):
        # 3 int_0^x P_2 = (3x^3 - 3x)/2 = -P_1 + x P_2
        lhs = legendre(2).integral() * 3
        assert lhs == Polynomial.of(0, Fraction(-3, 2), 0, Fraction(3, 2))
        assert lhs == X * legendre(2) - legendre(1)

    def test_range(self):
        assert check_eq34(25).ok
        assert check_eq33_eq35(25).ok


class TestNamedChecks:
    @pytest.mark.parametrize(
        "identity_id",
        ["eq31", "remark3term", "remark3term-legendre", "eq34", "eq33-35",
         "legendre-relations", "assoc-relations", "gegenbauer-updown", "chebyshev-relations"],
    )
    def test_dispatch(self, identity_id):
        report = identity_check(identity_id, 6)
        assert report.identity_id == identity_id
        assert report.ok
        assert report.instances

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            identity_check("no-such-identity", 5)


def _instances(index, labels, prefix=None):
    """The params of every instance at index 2 and 3 for each relation label."""
    return [
        {**(prefix or {}), index: k, "relation": label}
        for k in ("2", "3") for label in labels
    ]


#: identity id, the kind whose oracle member 2 is corrupted, and the params of
#: exactly the instances that must then fail: the ones reading that member.
CORRUPTED_RELATIONS = [
    ("legendre-relations", "legendre", _instances("n", ("raising", "lowering"))),
    (
        "gegenbauer-updown",
        "gegenbauer",
        [p for lam in ("1/2", "1", "3/2", "2") for p in _instances("n", ("lowering", "raising"), {"lambda": lam})],
    ),
    (
        "chebyshev-relations",
        "chebyshev-U",
        [{"n": "1", "relation": "U raising"}, {"n": "2", "relation": "U raising"},
         {"n": "2", "relation": "U lowering"}, {"n": "3", "relation": "U lowering"}],
    ),
    (
        "chebyshev-relations",
        "chebyshev-T",
        [{"m": "1", "relation": "T raising"}, {"m": "2", "relation": "T raising"},
         {"m": "2", "relation": "T lowering"}, {"m": "3", "relation": "T lowering"}],
    ),
]


@pytest.mark.parametrize("identity_id,kind,failing", CORRUPTED_RELATIONS)
def test_relation_check_negative_control(monkeypatch, identity_id, kind, failing):
    # the relation checks read their family members from the recurrence oracle;
    # shifting one member must fail every relation that reads it, and only those
    oracle = identities.oracle_recurrence

    def corrupted(spec):
        return oracle(spec) + 1 if spec.kind == kind and spec.n == 2 else oracle(spec)

    monkeypatch.setattr(identities, "oracle_recurrence", corrupted)
    report = identity_check(identity_id, 4)
    assert not report.ok
    assert [f.params for f in report.failures()] == failing
    assert all(f.discrepancy for f in report.failures())


def test_relation_scale_negative_control(monkeypatch):
    # a wrong scale in one relation row fails that relation at every index, only
    index, least, specs, (raising, lowering) = identities._RELATIONS["legendre-relations"][0]
    wrong = (*raising[:5], lambda s: s.n + 1)
    monkeypatch.setitem(identities._RELATIONS, "legendre-relations", [(index, least, specs, (wrong, lowering))])
    report = identity_check("legendre-relations", 4)
    assert [f.params for f in report.failures()] == [{"n": str(n), "relation": "raising"} for n in range(1, 5)]


def test_assoc_iterated_failure_carries_the_ratio(monkeypatch):
    # the two constructions of P_n^m differ by a scalar on failure; the discrepancy names it
    iterated = identities.assoc_legendre_iterated
    monkeypatch.setattr(identities, "assoc_legendre_iterated", lambda n, m: iterated(n, m) * 2)
    report = identity_check("assoc-relations", 2)
    failing = [{"n": str(n), "m": str(m), "relation": "iterated = definitional"} for n in (1, 2) for m in range(n + 1)]
    assert [f.params for f in report.failures()] == failing
    assert [f.discrepancy for f in report.failures()] == ["2"] * len(failing)


def shifted(t):
    """D - s t on the s^0, s^1, ... coefficients: [c_0, ..., c_k] -> [c_0', c_1' - t c_0, ..., -t c_k]."""
    zero = as_weighted(0)
    return lambda cs: [a.diff() - t * b for a, b in zip([*cs, zero], [zero, *cs])]


#: (spec, sigma) for every h0-chain row, legendre and chebyshev-U reading the
#: gegenbauer one; a row's drift is t = h/sigma.
H0_CHAIN_ROWS = [
    (FamilySpec("chebyshev-T", 2), X_SQ_MINUS_1),
    (FamilySpec("gegenbauer", 2, lam=Fraction(3, 2)), X_SQ_MINUS_1),
    (FamilySpec("legendre", 2), X_SQ_MINUS_1),
    (FamilySpec("chebyshev-U", 2), X_SQ_MINUS_1),
    (FamilySpec("laguerre-radial", 2, alpha=Fraction(1, 2)), X),
    (FamilySpec("hermite", 2), X),
]


class TestRemainderTerm:
    def test_zero_drift_vanishes(self):
        for n in range(2, 9):
            assert remainder_term(n, ZERO).is_zero

    def test_n2_closed_form(self):
        # F[h] = 3xh - h^2 + (x^2-1) h' for n = 2
        for h in (ONE, X, Polynomial.of(1, 2, 3)):
            expected = X * h * 3 - h * h + X_SQ_MINUS_1 * h.diff()
            assert remainder_term(2, h).as_polynomial() == expected

    def test_first_derivative_term_absent_for_constant_drift(self):
        # with h = 1 the linear part collapses to g_0: no derivative terms survive
        expansion = remainder_expansion(3, ONE)
        gs = remainder_linear_coefficients(3)
        assert expansion[1] == gs[0]

    def test_expansion_degree_bound_holds(self):
        for n in (2, 3, 4):
            coeffs = remainder_expansion(n, X)
            assert len(coeffs) == n + 1
            assert coeffs[0] == ZERO

    @pytest.mark.parametrize("n", range(2, 13))
    def test_expansion_matches_remainder_term(self, n):
        # F[h] against n! (P_n minus the chain with exp(int h/(x^2-1)) around it), built by
        # apply_chain, which shares no walk with remainder_term; then the one-pass expansion
        # against remainder_term at each scale s
        row = chain_row(FamilySpec("legendre", n), "h0-chain")
        for h in (ONE, X, X * X, *random_drifts(2, seed=n)):
            reference = (legendre(n) - drift_factor_chain(row, RationalFunction(h, X_SQ_MINUS_1))) * math.factorial(n)
            assert remainder_term(n, h).as_polynomial() == reference
            expansion = remainder_expansion(n, h)
            for s in range(n + 2):
                total = sum((g * s**j for j, g in enumerate(expansion)), ZERO)
                assert total == remainder_term(n, h * s).as_polynomial()
        # every h0-chain row walked with each D as D - s t, t = h/sigma: s^0 is the
        # member, there is one coefficient per D plus one, each a polynomial, and
        # their sum is the chain with the drift factor exp(int t) around it
        for spec, sigma in H0_CHAIN_ROWS:
            row = chain_row(spec.with_n(n), "h0-chain")
            member = oracle_recurrence(spec.with_n(n))
            assert drift_chain(row) == [as_weighted(member)]
            for h in (ONE, X, Polynomial.of(1, 2, 3)):
                t = RationalFunction(h, sigma)
                coeffs = [c.as_polynomial() for c in drift_chain(row, shifted(t))]
                assert coeffs[0] == member
                assert len(coeffs) == sum(step is DIFF for step in row[1]) + 1
                assert sum(coeffs, ZERO) == drift_factor_chain(row, t)

    def test_operator_relation_drift_independent(self):
        for n in (2, 5, 9):
            for drift in random_drifts(3, seed=77):
                assert legendre_operator_relation_holds(n, drift)

    def test_structure_report_outcomes(self):
        report = remainder_structure_report(n_values=(3, 4), drifts=(ONE, X))
        claims = [i for i in report.instances if "claim" in i.params]
        observed = [i for i in report.instances if "observed" in i.params]
        # the printed leading-term claims do not match the computed expansion;
        # the discrepancy is recorded, never normalized away
        assert claims and all(not i.ok and i.discrepancy for i in claims)
        # the computed structure itself is stable: top power (-1)^(n-1) h^n and
        # derivative coefficient (3n^2-5n+4)/2 x (x^2-1)^(n-2)
        assert observed and all(i.ok for i in observed)

    def test_observed_derivative_coefficient_law(self):
        for n in range(3, 41):
            gs = remainder_linear_coefficients(n)
            expected = X * X_SQ_MINUS_1 ** (n - 2) * Fraction(3 * n * n - 5 * n + 4, 2)
            assert gs[n - 2] == expected
            assert gs[n - 1] == X_SQ_MINUS_1 ** (n - 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_linear_coefficients_match_the_probes(self, n):
        # the one pass against the monomial probes h = x^k, k <= n-2, which cannot
        # see the top coefficient; that one is (x^2-1)^(n-1)
        gs = remainder_linear_coefficients(n)
        assert len(gs) == n
        assert gs[:-1] == probe_linear_coefficients(n)
        assert gs[-1] == X_SQ_MINUS_1 ** (n - 1)

    def test_linear_coefficients_n2_closed_form(self):
        # the linear part of F[h] = 3xh - h^2 + (x^2-1) h' for n = 2
        assert remainder_linear_coefficients(2) == [X * 3, X_SQ_MINUS_1]

    @pytest.mark.parametrize("n", [0, 1])
    def test_remainder_needs_n_at_least_2(self, n):
        with pytest.raises(ValueError, match=r"^the remainder term needs n >= 2$"):
            remainder_linear_coefficients(n)
        with pytest.raises(ValueError, match=r"^the remainder term needs n >= 2$"):
            remainder_structure_report([n])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_linear_part_has_order_n_minus_1(self, n):
        # the probes stop at x^(n-2); on h = x^(n-1) what g_0..g_(n-2) leave is
        # the top term (x^2-1)^(n-1) h^(n-1)
        h = Polynomial.monomial(1, n - 1)
        residual, derivative = remainder_expansion(n, h)[1], h
        for g in probe_linear_coefficients(n):
            residual, derivative = residual - g * derivative, derivative.diff()
        assert derivative == Polynomial.constant(math.factorial(n - 1))
        assert residual == X_SQ_MINUS_1 ** (n - 1) * derivative

    def test_observed_top_power_law(self):
        for n in (2, 3, 4):
            for h in (ONE, Polynomial.of(0, 0, 1)):
                assert remainder_expansion(n, h)[n] == h**n * (-1) ** (n - 1)
        for n in range(2, 41):  # h = x alone this far, as the cost of an expansion grows steeply with n
            assert remainder_expansion(n, X)[n] == X**n * (-1) ** (n - 1)
