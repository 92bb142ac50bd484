import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ladderpoly import cli, verify
from ladderpoly.algebra import Polynomial
from ladderpoly.cli import main
from ladderpoly.families import FamilySpec, generate_ladder, oracle_recurrence
from ladderpoly.ladder import factorize
from ladderpoly.weighted import WeightedExpression


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=2):
    """The CLI in a fresh interpreter; raises TimeoutExpired past the timeout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ladderpoly.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestGen:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "legendre", "--n-max", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["0,1", "1,0,1", "2,-1/2,0,3/2"]

    def test_latex_chebyshev(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "chebyshev-T", "--n-max", "3", "--format", "latex")
        assert code == 0
        assert "4x^3 - 3x" in out

    def test_json_hermite(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "hermite", "--n-max", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["records"][1]["coefficients"] == ["0", "2"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "laguerre", "--alpha", "1/2", "--n-max", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "laguerre"
        assert payload["params"] == {"alpha": "1/2"}
        for record in payload["records"]:
            rebuilt = Polynomial(tuple(Fraction(c) for c in record["coefficients"]))
            expected = generate_ladder(FamilySpec("laguerre", record["n"], alpha=Fraction(1, 2)))
            assert rebuilt == expected

    def test_assoc_legendre_weight_descriptor(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "assoc-legendre", "--m", "1", "--n-max", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        record = payload["records"][0]
        assert record["n"] == 1
        assert record["weight"]["powers"] == [["-1", "1/2"], ["1", "1/2"]]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run(
            capsys, "gen", "--family", "legendre", "--n-max", "1", "--format", "json", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["family"] == "legendre"

    @pytest.mark.parametrize("fmt", ["csv", "latex"])
    def test_odd_m_weight_needs_json(self, capsys, fmt):
        code, out, err = run(capsys, "gen", "--family", "assoc-legendre", "--m", "1", "--n-max", "2", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: {fmt} output cannot carry the weight of these assoc-legendre members; use --format json\n"

    def test_even_m_csv_has_no_weight(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "assoc-legendre", "--m", "2", "--n-max", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["2,-3,0,3", "3,0,-15,0,15"]

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / "missing" / "table.json" if where == "missing-directory" else tmp_path
        code, out, err = run(capsys, "gen", "--family", "legendre", "--n-max", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno ") and str(target) in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "jacobi", "--n-max", "2")
        assert code == 2
        assert "unknown family" in err

    def test_family_without_generation(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "coulomb-radial", "--ell", "0", "--n-max", "2")
        assert code == 2
        assert out == ""
        assert err == "error: family 'coulomb-radial' has no polynomial ladder generation\n"

    @pytest.mark.parametrize("order", [(), ("--m", "4"), ("--m", "-1")], ids=["no-m", "m-above-n-max", "negative-m"])
    def test_assoc_legendre_order_errors(self, capsys, order):
        code, out, err = run(capsys, "gen", "--family", "assoc-legendre", "--n-max", "3", *order)
        assert code == 2
        assert out == ""
        assert err == "error: assoc-legendre requires an order m with 0 <= m <= n\n"


class TestGenDigitLimit:
    """gen checks each row as it builds it and stops at the first whose coefficient numerator or
    denominator has more digits than int-to-str prints (sys.get_int_max_str_digits(); 0 is no limit)."""

    @pytest.fixture
    def digit_limit(self):
        saved = sys.get_int_max_str_digits()

        def set_limit(limit):
            sys.set_int_max_str_digits(limit)
            return limit

        yield set_limit
        sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize(
        "lam,n_max,printed",
        [
            (f"{10**640 - 1}/2", "1", str(10**640 - 1)),  # C_1 = 2 lambda x
            (f"1/{10**320 - 1}", "2", f"/{(10**320 - 1) ** 2}"),  # C_2 = 2 lambda (lambda + 1) x^2 - lambda
        ],
        ids=["numerator", "denominator"],
    )
    def test_a_coefficient_of_limit_digits_prints(self, capsys, digit_limit, lam, n_max, printed):
        digit_limit(640)
        code, out, err = run(capsys, "gen", "--family", "gegenbauer", "--lambda", lam, "--n-max", n_max, "--format", "csv")
        assert (code, err) == (0, "")
        assert printed in out.splitlines()[-1]

    @pytest.mark.parametrize(
        "lam,n_max,failing",
        [("5e639", "1", "row n = 1 has a 641-digit"), (f"1/{10**320 + 1}", "2", "row n = 2 has a 641-digit")],
        ids=["numerator", "denominator"],
    )
    def test_one_digit_more_is_a_usage_error(self, capsys, digit_limit, lam, n_max, failing):
        digit_limit(640)
        code, out, err = run(capsys, "gen", "--family", "gegenbauer", "--lambda", lam, "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == f"error: {failing} coefficient; the limit is 640\n"

    @pytest.mark.parametrize(
        "lam,n_max,message",
        [
            ("1e300", "40", "row n = 15 has a 4493-digit coefficient"),
            (str(2**4096 - 1), "512", "row n = 4 has a 4932-digit coefficient"),
        ],
        ids=["1e300-n40", "4096-bits-n512"],
    )
    def test_a_large_parameter_stops_at_its_first_unprintable_row(self, capsys, digit_limit, lam, n_max, message):
        digit_limit(4300)
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "--family", "gegenbauer", "--lambda", lam, "--n-max", n_max)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == f"error: {message}; the limit is 4300\n"
        assert "set_int_max_str_digits" not in err

    def test_no_limit_prints_every_row(self, capsys, digit_limit):
        digit_limit(0)
        code, out, err = run(capsys, "gen", "--family", "gegenbauer", "--lambda", "5e639", "--n-max", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["records"][1]["coefficients"] == ["0", str(10**640)]


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "eq31", "--n-max", "8")
        assert code == 0
        assert "PASS" in out

    def test_negative_control_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--n-max", "4", "--negative-control"
        )
        assert code == 1
        assert "FAIL" in out
        assert "discrepancy" in out

    @pytest.mark.parametrize("suite", ["eq31", "rodrigues", "factorization"])
    def test_negative_control_rejected_where_it_corrupts_nothing(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "3", "--negative-control")
        assert code == 2
        assert out == ""
        assert err == f"error: the negative control corrupts only the oracle suite, which '{suite}' does not run\n"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "eq34", "--n-max", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {r["id"] for r in payload["reports"]} == {"eq34", "eq33-35"}

    @pytest.mark.parametrize("suite,n_max", [("eq31", "-5"), ("eq31", "-1"), ("factorization", "-1"), ("all", "-1")])
    def test_negative_n_max_is_usage_error(self, capsys, suite, n_max):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("suite,n_max", [("eq31", "1"), ("eq31", "0"), ("eq34", "0"), ("assoc-relations", "0")])
    def test_nothing_checked_fails(self, capsys, suite, n_max):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--n-max", n_max)
        assert code == 1
        assert "0/0 instances exact" in out
        assert out.splitlines()[-1] == "FAIL"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "everything", "--n-max", "5"])
        assert excinfo.value.code == 2


class TestNMaxLimit:
    """gen and verify refuse an n_max past algebra.MAX_EXPONENT (512) before any work."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--family", "legendre"),
            ("gen", "--family", "assoc-legendre", "--m", "2"),
            ("verify", "--suite", "all"),
            ("verify", "--suite", "oracle"),
        ],
        ids=["gen", "gen-assoc-legendre", "verify-all", "verify-oracle"],
    )
    def test_one_past_the_limit_is_usage_error_at_once(self, argv):
        start = time.perf_counter()
        done = run_process(*argv, "--n-max", "513")
        assert time.perf_counter() - start < 1
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: n_max 513 exceeds the limit 512\n"

    def test_library_suite_refuses_past_the_limit(self):
        with pytest.raises(ValueError, match=r"^n_max 513 exceeds the limit 512$"):
            verify.run_suite("factorization", 513)

    def test_verify_at_the_limit(self):
        done = run_process("verify", "--suite", "factorization", "--n-max", "512", timeout=30)
        assert done.returncode == 0
        assert done.stdout.splitlines()[-1] == "PASS"

    def test_gen_at_the_limit(self, tmp_path):
        out = tmp_path / "table.json"
        done = run_process("gen", "--family", "chebyshev-T", "--n-max", "512", "--out", str(out), timeout=30)
        assert done.returncode == 0
        records = json.loads(out.read_text())["records"]
        assert [r["n"] for r in records] == list(range(513))
        assert records[-1]["coefficients"][-1] == str(2**511)  # T_512 leads with 2^511


class TestFactorize:
    def test_legendre_zero_drift(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "--family", "legendre", "--direction", "raising", "--n", "2", "--drift", "0"
        )
        assert code == 0
        assert "g2 = x^2 - 1" in out
        assert "f1 = 1" in out
        assert "5/5 testers exact" in out

    def test_legendre_drift_is_h(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", "x^2+1", "--drift-is-h"
        )
        assert code == 0
        # exponential factor e^x (x-1)^1 (x+1)^(-1), verified by recombination
        assert "f1 = (x - 1)/(x + 1) * exp(x)" in out

    def test_assoc_legendre_m2(self, capsys):
        code, out, _ = run(
            capsys, "factorize", "--family", "assoc-legendre", "--n", "3", "--m", "2", "--drift", "0", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        # g2 ~ (x-1)^-1 (x+1)^-1: canonically the coefficient 1/(x^2-1)
        assert payload["g2"]["coeff"]["den"] == ["-1", "0", "1"]
        assert payload["g2"]["powers"] == []

    @pytest.mark.parametrize("family", [("laguerre-radial", "--alpha", "1/2"), ("oscillator-3d", "--ell", "1")])
    def test_radial_json_drift_is_in_r(self, capsys, family):
        code, out, _ = run(capsys, "factorize", "--family", *family, "--n", "1", "--drift", "r^2+1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["drift"] == "r^2 + 1"  # in the operator's variable, as the text mode writes it

    def test_out_of_class_drift(self, capsys):
        code, _, err = run(
            capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", "1/(x^2+1)"
        )
        assert code == 2
        assert "error" in err

    def test_drift_is_h_requires_rational_ratio(self, capsys):
        code, _, err = run(
            capsys, "factorize", "--family", "assoc-legendre", "--n", "2", "--m", "1",
            "--drift", "x", "--drift-is-h"
        )
        assert code == 2

    def test_drift_is_h_message(self, capsys):
        code, out, err = run(
            capsys, "factorize", "--family", "assoc-legendre", "--n", "2", "--m", "1", "--drift", "x", "--drift-is-h"
        )
        assert (code, out) == (2, "")
        assert err == "error: h/a is not a rational function: (x)/(x^2 - 1) * (x + 1)^(1/2) * (x - 1)^(1/2)\n"

    @pytest.mark.parametrize(
        "drift,message", [("x^²", "expected exponent at position 2"), ("²", "unexpected '²' at position 0")]
    )
    def test_superscript_digit_is_a_parse_error(self, capsys, drift, message):
        # '²'.isdigit() holds but int() refuses it; the parser reads only decimal digits
        code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", drift)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_failed_factorization_exits_one(self, capsys, monkeypatch):
        def doubled_h(op, drift):
            fac = factorize(op, drift)
            return dataclasses.replace(fac, h=fac.h * 2)

        monkeypatch.setattr(cli, "factorize", doubled_h)
        code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", "x")
        assert code == 1
        assert err == ""
        assert out.splitlines()[-1] == "verification: 0/5 testers exact; first failure on 1"

    def test_weight_mismatch_exits_one(self, capsys, monkeypatch):
        def extra_weight(op, drift):
            fac = factorize(op, drift)
            return dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3)))

        monkeypatch.setattr(cli, "factorize", extra_weight)
        code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "3")
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "verification: 0/5 testers exact; first failure on 1"

    def test_weight_mismatch_with_a_drift_exits_one(self, capsys, monkeypatch):
        # with h nonzero the factorized side itself adds members of different weight cells
        def extra_weight(op, drift):
            fac = factorize(op, drift)
            return dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3)))

        monkeypatch.setattr(cli, "factorize", extra_weight)
        code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "3", "--drift", "1")
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "verification: 0/5 testers exact; first failure on 1"

    @pytest.mark.parametrize("drift", ["0", "1"])
    def test_radial_weight_mismatch_exits_one(self, capsys, monkeypatch, drift):
        def extra_weight(op, drift):
            fac = factorize(op, drift)
            return dataclasses.replace(fac, f1=fac.f1 * WeightedExpression.power(5, Fraction(1, 3)))

        monkeypatch.setattr(cli, "factorize", extra_weight)
        argv = ("factorize", "--family", "laguerre-radial", "--n", "2", "--alpha", "1/2", "--drift", drift)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "verification: 0/5 testers exact; first failure on 1"

    @pytest.mark.parametrize(
        "argv,degree",
        [
            (("--family", "legendre", "--n", "2", "--drift", "100000000/x"), 100000002),
            (("--family", "coulomb-radial", "--n", "1", "--ell", "100000000", "--drift", "0"), 100000001),
            (("--family", "laguerre", "--n", "1", "--alpha", "100000000", "--drift", "0"), 100000001),
            (("--family", "legendre", "--n", "1000000000000000000000000", "--drift", "x"), 10**24),
            (("--family", "legendre", "--n", "514", "--drift", "0"), 514),
        ],
        ids=["large-residue", "large-ell", "large-alpha", "large-n", "n-past-the-bound"],
    )
    def test_huge_weight_is_usage_error_within_two_seconds(self, argv, degree):
        done = run_process("factorize", *argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: weight of integer degree {degree} exceeds the limit 512\n"

    def test_deeply_nested_drift_is_usage_error(self, capsys):
        nested = "(" * 3000 + "x" + ")" * 3000
        code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", nested)
        assert code == 2
        assert out == ""
        assert err.startswith("error: parentheses nested deeper than")

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", "x +")
        assert code == 2
        assert "position" in err

    def test_large_pole_within_two_seconds(self):
        done = run_process("factorize", "--family", "legendre", "--n", "2", "--drift", "1/(x-123456789012345678)")
        assert done.returncode == 0
        assert "verification: 5/5 testers exact" in done.stdout.splitlines()

    def test_huge_degree_is_usage_error_within_two_seconds(self):
        done = run_process("factorize", "--family", "legendre", "--n", "2", "--drift", "((x+1)^512)^512")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: degree 262144 exceeds the limit 512 at position 12\n"

    def test_degree_300_drift_within_two_seconds(self):
        done = run_process("factorize", "--family", "legendre", "--n", "2", "--drift", "(x+3)^300/(x+1)^200")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: drift outside the integrable class: denominator of degree 201 has a repeated factor\n"

    def test_long_out_of_class_error_is_short(self, capsys):
        code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", "1/(x+1)^512")
        assert code == 2
        assert out == ""
        assert len(err.encode()) < 200
        assert err == "error: drift outside the integrable class: denominator of degree 513 has a repeated factor\n"

    @pytest.mark.parametrize(
        "drift,message",
        [
            ("1/(x-1)^2", "denominator x^3 - x^2 - x + 1 has a repeated factor"),
            ("1/(x^2+1)", "denominator factor x^2 + 1 is irreducible over the rationals"),
        ],
        ids=["repeated", "irreducible"],
    )
    def test_short_out_of_class_error_names_the_polynomial(self, capsys, drift, message):
        code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", drift)
        assert code == 2
        assert out == ""
        assert err == f"error: drift outside the integrable class: {message}\n"


@pytest.mark.parametrize(
    "error,message",
    [(RecursionError("maximum recursion depth exceeded"), "maximum recursion depth exceeded"), (MemoryError(), "MemoryError")],
    ids=["recursion", "memory"],
)
def test_exhausted_resources_are_usage_errors(capsys, monkeypatch, error, message):
    def exhaust(args):
        raise error

    monkeypatch.setattr(cli, "cmd_factorize", exhaust)
    code, out, err = run(capsys, "factorize", "--family", "legendre", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (("gen", "--family", "laguerre", "--n-max", "2"), "--alpha", "-1/2"),
        (("gen", "--family", "gegenbauer", "--n-max", "2"), "--lambda", "-1/3"),
        (("factorize", "--family", "laguerre", "--n", "2"), "--alpha", "-1/2"),
        (("factorize", "--family", "gegenbauer", "--n", "2"), "--lambda", "-1/3"),
    ],
    ids=["gen-alpha", "gen-lambda", "factorize-alpha", "factorize-lambda"],
)
def test_negative_rational_as_separate_argument(capsys, argv, option, value):
    separate = run(capsys, *argv, option, value)
    assert separate == run(capsys, *argv, f"{option}={value}")
    assert (separate[0], separate[2]) == (0, "")


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (("gen", "--family", "laguerre", "--n-max", "2"), "--alpha", "abc"),
        (("factorize", "--family", "gegenbauer", "--n", "2"), "--lambda", "1/0"),
    ],
    ids=["gen-alpha-abc", "factorize-lambda-1/0"],
)
def test_inexact_rational_is_usage_error(capsys, argv, option, value):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, option, value])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: not an exact rational: '{value}'\n")


@pytest.mark.parametrize("drift", ["-x", "-x+1", "-(x+1)"])
def test_negative_drift_as_separate_argument(capsys, drift):
    argv = ("factorize", "--family", "legendre", "--n", "2")
    separate = run(capsys, *argv, "--drift", drift)
    assert separate == run(capsys, *argv, f"--drift={drift}")
    assert (separate[0], separate[2]) == (0, "")


def test_factorize_help_and_negative_n_keep_their_meaning(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["factorize", "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ladderpoly factorize")
    assert run(capsys, "factorize", "--family", "legendre", "--n", "-1") == (
        2, "", "error: index n must be a nonnegative integer\n"
    )


@pytest.mark.parametrize(
    "argv,kind,label",
    [
        (("gen", "--family", "gegenbauer", "--lambda", "1e20000", "--n-max", "40"), "gegenbauer", "lambda"),
        (("gen", "--family", "laguerre", "--alpha", "1e-30000", "--n-max", "30"), "laguerre", "alpha"),
        (("factorize", "--family", "gegenbauer", "--n", "2", "--lambda", "1e5000", "--drift", "x"), "gegenbauer", "lambda"),
    ],
    ids=["gen-lambda", "gen-alpha", "factorize-lambda"],
)
def test_oversized_parameter_is_usage_error_at_once(argv, kind, label):
    # refused before any work, so an oversized parameter starts no long computation
    start = time.perf_counter()
    done = run_process(*argv)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {kind} requires {label} = p/q with p, q within 4096 bits\n"


@pytest.mark.parametrize("value", ["-1", "-3/2"])
@pytest.mark.parametrize("command", [("gen", "--n-max", "2"), ("factorize", "--n", "2")], ids=["gen", "factorize"])
def test_negative_alpha_out_of_range_keeps_its_message(capsys, command, value):
    argv = (command[0], "--family", "laguerre", *command[1:])
    expected = (2, "", "error: laguerre requires a rational alpha > -1\n")
    assert run(capsys, *argv, "--alpha", value) == expected
    assert run(capsys, *argv, f"--alpha={value}") == expected
