import json
from fractions import Fraction

import pytest

from ladderpoly.algebra import Polynomial
from ladderpoly.cli import main
from ladderpoly.families import FamilySpec, generate_ladder, oracle_recurrence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "jacobi", "--n-max", "2")
        assert code == 2
        assert "unknown family" in err

    def test_family_without_generation(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "coulomb-radial", "--ell", "0", "--n-max", "2")
        assert code == 2


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

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "factorize", "--family", "legendre", "--n", "2", "--drift", "x +")
        assert code == 2
        assert "position" in err
