"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All checks are exact rational arithmetic; "tolerance" everywhere is
exact equality.
"""

import json
import time
from fractions import Fraction

from ladderpoly.algebra import ONE, Polynomial, RationalFunction, X, ZERO
from ladderpoly.cli import main
from ladderpoly.families import (
    FamilySpec,
    X_SQ_MINUS_1,
    assoc_legendre_iterated,
    generate_assoc_legendre,
    generate_ladder,
    hermite_from_laguerre,
    make_operator,
    oracle_recurrence,
    qpow,
    rpow,
)
from ladderpoly.identities import (
    check_assoc_relations,
    check_eq31,
    check_eq33_eq35,
    check_eq34,
    check_remark_three_term,
    check_remark_three_term_legendre,
    remainder_structure_report,
    remainder_term,
)
from ladderpoly.ladder import LOWERING, RAISING, factorize
from ladderpoly.verify import (
    random_drifts,
    run_suite,
    suite_factorization,
    suite_oracle,
    suite_rodrigues,
)
from ladderpoly.weighted import WeightedExpression, as_weighted, exp_integral

from helpers import legendre_operator_relation_holds


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def _failures(reports):
    out = []
    for report in reports:
        out += [(report.identity_id, f.params, f.discrepancy) for f in report.failures()]
    return out


def test_criterion_01_oracle_equivalence():
    started = time.time()
    reports = suite_oracle(25)
    elapsed = time.time() - started
    ok = all(r.ok for r in reports) and elapsed < 10
    _report(1, "oracle equivalence n <= 25", ok, f"{elapsed:.1f}s, {_failures(reports)[:2]}")


def test_criterion_02_identity_eq31():
    started = time.time()
    report = check_eq31(40)
    elapsed = time.time() - started
    boundary = [i for i in report.instances if "boundary" in i.params]
    ok = report.ok and len(boundary) == 39 * 4 and elapsed < 5
    _report(2, "identity (3.1) n = 2..40 with boundary values", ok, f"{elapsed:.1f}s")


def test_criterion_03_remark_three_term():
    started = time.time()
    derivative_form = check_remark_three_term(30)
    legendre_form = check_remark_three_term_legendre(30)
    elapsed = time.time() - started
    ok = derivative_form.ok and legendre_form.ok and elapsed < 5
    _report(3, "three-term remark identities n = 3..30", ok, f"{elapsed:.1f}s")


def test_criterion_04_integral_recurrence():
    started = time.time()
    eq34 = check_eq34(30)
    eq3335 = check_eq33_eq35(30)
    elapsed = time.time() - started
    ok = eq34.ok and eq3335.ok and elapsed < 5
    _report(4, "integral recurrence (3.4) and (3.3) = (3.5)", ok, f"{elapsed:.1f}s")


def test_criterion_05_factorization_round_trip():
    started = time.time()
    reports = suite_factorization()
    elapsed = time.time() - started
    count = sum(len(r.instances) for r in reports)
    ok = all(r.ok for r in reports) and count == 1250 and elapsed < 30
    _report(5, "factorization round trip, 1250 exact checks", ok, f"{elapsed:.1f}s, {count} checks")


def test_criterion_06_h0_reduction_matches_printed_pairs():
    # Every printed g2/f1 pair, transcribed into the (x - root) basis; the
    # exact scalar between the computed and printed factor is recorded per
    # case (the -1 entries are the split-square-root basis phase).
    cases = []

    def case(label, op, printed_g2, printed_f1, want_g2_scalar, want_f1_scalar):
        fac = factorize(op, 0)
        cases.append((label, fac.g2.scalar_ratio(printed_g2), want_g2_scalar,
                      fac.f1.scalar_ratio(printed_f1), want_f1_scalar))

    gauss_plus = WeightedExpression.exp_of(X * X * Fraction(1, 2))
    gauss_minus = WeightedExpression.exp_of(X * X * Fraction(-1, 2))
    case("oscillator a+", make_operator(FamilySpec("hermite", 0), RAISING),
         gauss_minus, -gauss_plus, 1, 1)

    for alpha, n in ((Fraction(1, 2), 2), (Fraction(0), 3)):
        op = make_operator(FamilySpec("laguerre", n, alpha=alpha), RAISING)
        case(f"laguerre A+ alpha={alpha} n={n}", op,
             rpow(alpha + n) * WeightedExpression.exp_of(-X),
             rpow(1 - alpha - n) * WeightedExpression.exp_of(X), 1, 1)

    for n in (2, 3, 5):
        op = make_operator(FamilySpec("legendre", n), RAISING)
        case(f"legendre R_{n}", op, qpow(Fraction(n, 2)), qpow(1 - Fraction(n, 2)), 1, 1)
        low = make_operator(FamilySpec("legendre", n), LOWERING)
        case(f"legendre L_{n}", low, qpow(Fraction(n, 2)), qpow(1 - Fraction(n, 2)), 1, 1)

    for m, n in ((1, 2), (2, 3)):
        op = make_operator(FamilySpec("assoc-legendre", n, m=m), RAISING)
        case(f"assoc R_m m={m}", op, qpow(Fraction(-m, 2)), qpow(Fraction(m + 1, 2)), 1, 1)
        low = make_operator(FamilySpec("assoc-legendre", n, m=m), LOWERING)
        case(f"assoc L_m m={m}", low, qpow(Fraction(-m, 2)), qpow(Fraction(m + 1, 2)), -1, 1)

    for lam, n in ((Fraction(1), 2), (Fraction(3, 2), 3)):
        op = make_operator(FamilySpec("gegenbauer", n, lam=lam), RAISING)
        case(f"gegenbauer C+ lam={lam} n={n}", op,
             qpow(Fraction(n - 1, 2) + lam), qpow(Fraction(3 - n, 2) - lam), 1, -1)

    for n in (2, 4):
        op = make_operator(FamilySpec("chebyshev-U", n), RAISING)
        case(f"chebyshev U+ n={n}", op, qpow(Fraction(n, 2) + 1), qpow(Fraction(-n, 2)), 1, 1)

    for m in (2, 3):
        op = make_operator(FamilySpec("chebyshev-T", m), RAISING)
        case(f"chebyshev T+ m={m}", op, qpow(Fraction(m, 2)),
             qpow(1 - Fraction(m, 2)) * Fraction(-1, m), 1, -1)

    for ell in (0, 2):
        op = make_operator(FamilySpec("coulomb-radial", 0, ell=ell), RAISING)
        case(f"coulomb A+ ell={ell}", op, rpow(ell + 1), rpow(-ell - 1), 1, 1)
        osc = make_operator(FamilySpec("oscillator-3d", 0, ell=ell), RAISING)
        quarter = WeightedExpression.exp_of(X * X * Fraction(1, 4))
        case(f"oscillator-3d a+ ell={ell}", osc, rpow(ell + 1) * quarter,
             rpow(-ell - 1) / quarter, 1, 1)

    for alpha, n in ((Fraction(0), 1), (Fraction(1, 2), 2)):
        op = make_operator(FamilySpec("laguerre-radial", n, alpha=alpha), RAISING)
        case(f"laguerre-radial A+ alpha={alpha} n={n}", op,
             rpow(2 * (n + alpha)) * WeightedExpression.exp_of(-(X * X)),
             rpow(1 - 2 * (n + alpha)) * WeightedExpression.exp_of(X * X) * Fraction(1, 2), 1, 1)

    # the general lowering shape -D a + b: f1 = a exp(-int b/a), g2 = a/f1
    from ladderpoly.ladder import LadderOperator

    a = X * (X - 2)
    general = LadderOperator(
        as_weighted(a), as_weighted(X * X), LOWERING
    )
    printed_f1 = as_weighted(a) * exp_integral(RationalFunction(-(X * X), a))
    fac = factorize(general, 0)
    cases.append(("general lowering form", fac.f1.scalar_ratio(printed_f1), 1,
                  fac.g2.scalar_ratio(general.a / printed_f1), 1))

    bad = [c for c in cases if c[1] != c[2] or c[3] != c[4]]
    for label, g2_ratio, g2_want, f1_ratio, f1_want in cases:
        assert g2_ratio is not None and f1_ratio is not None, label
    _report(6, f"h=0 reduction matches all {len(cases)} printed factor pairs",
            not bad, f"scalar mismatches: {bad}" if bad else "scalars recorded per case")


def test_criterion_07_rodrigues_forms():
    started = time.time()
    reports = suite_rodrigues(12)
    elapsed = time.time() - started
    ok = all(r.ok for r in reports) and elapsed < 20
    _report(7, "Rodrigues formula and chain variants vs oracle, n <= 12", ok,
            f"{elapsed:.1f}s, {_failures(reports)[:2]}")


def test_criterion_08_hermite_reductions():
    ok = True
    for n in range(11):
        ok = ok and hermite_from_laguerre(n, "even") == oracle_recurrence(FamilySpec("hermite", 2 * n))
        ok = ok and hermite_from_laguerre(n, "odd") == oracle_recurrence(FamilySpec("hermite", 2 * n + 1))
        ok = ok and generate_ladder(FamilySpec("hermite", n)) == oracle_recurrence(FamilySpec("hermite", n))
    _report(8, "Hermite reductions (Laguerre composition and oscillator iteration)", ok,
            "oscillator scale = 1")


def test_criterion_09_associated_legendre():
    ok = True
    for n in range(11):
        for m in range(n + 1):
            definitional = generate_assoc_legendre(n, m)
            ratio = assoc_legendre_iterated(n, m).scalar_ratio(definitional)
            ok = ok and ratio == 1
            source = generate_assoc_legendre(n, m + 1) if m + 1 <= n else as_weighted(0)
            lowered = make_operator(FamilySpec("assoc-legendre", n, m=m), LOWERING).apply(source)
            expected = definitional * Fraction((n - m) * (n + m + 1))
            ok = ok and (lowered - expected).is_zero
    _report(9, "associated Legendre forms and lowering relation, m <= n <= 10", ok,
            "iteration scale = 1")


def test_criterion_10_remainder_term():
    ok = all(remainder_term(n, ZERO).is_zero for n in range(2, 11))
    for n in range(2, 16):
        for drift in random_drifts(3, seed=n):
            ok = ok and legendre_operator_relation_holds(n, drift)
    report = remainder_structure_report(n_values=range(3, 9), drifts=(ONE, X, X * X))
    claims = [i for i in report.instances if "claim" in i.params]
    observed = [i for i in report.instances if "observed" in i.params]
    # every stated-claim outcome is recorded (these fail against the computed
    # expansion and carry the computed value); the computed structure itself
    # must be stable
    recorded = all(isinstance(i.ok, bool) and (i.ok or i.discrepancy) for i in claims)
    ok = ok and recorded and len(claims) == 6 * 4 and all(i.ok for i in observed)
    failing_claims = sum(not i.ok for i in claims)
    _report(10, "remainder term: F[0] = 0, drift-independent operator relation, structure recorded",
            ok, f"{failing_claims}/{len(claims)} printed leading-term claims fail as computed; outcomes recorded")


def test_criterion_11_cli(capsys, tmp_path):
    # JSON round trip
    out_file = tmp_path / "gegenbauer.json"
    code = main(["gen", "--family", "gegenbauer", "--lambda", "3/2", "--n-max", "8",
                 "--format", "json", "--out", str(out_file)])
    payload = json.loads(out_file.read_text())
    round_trip = code == 0
    for record in payload["records"]:
        rebuilt = Polynomial(tuple(Fraction(c) for c in record["coefficients"]))
        expected = generate_ladder(FamilySpec("gegenbauer", record["n"], lam=Fraction(3, 2)))
        round_trip = round_trip and rebuilt == expected

    verify_code = main(["verify", "--suite", "all", "--n-max", "20"])
    control_code = main(["verify", "--suite", "all", "--n-max", "20", "--negative-control"])
    capsys.readouterr()
    ok = round_trip and verify_code == 0 and control_code == 1
    _report(11, "CLI round trip, verify --suite all exits 0, negative control exits 1", ok,
            f"verify={verify_code}, control={control_code}")
