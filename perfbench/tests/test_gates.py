"""Each correctness gate passes on the package's real output and fails on a
corrupted one, so a run with a broken output reports fail_ratio > 0."""

import dataclasses
import json

import workloads
from workloads import (
    GEN_N_MAX,
    PINNED,
    Batch,
    FactorizeRequests,
    GenDeep,
    VerifyAll,
    gen_argv,
    gen_row_failures,
    remainder_failures,
    remainder_pattern,
    remainder_units,
    request_ok,
    request_stream,
    suite_units,
)


def fail_ratio(attempted, failed, messages=()):
    assert attempted > 0
    return failed / attempted


def test_verify_gate_fails_on_the_negative_control():
    from ladderpoly import verify

    oracle = PINNED["verify-all"]["oracle"]
    assert suite_units("oracle", verify.run_suite("oracle", workloads.VERIFY_N_MAX)) == (oracle, 0)
    corrupted = verify.run_suite("oracle", workloads.VERIFY_N_MAX, negative_control=True)
    attempted, failed = suite_units("oracle", corrupted)
    assert failed / attempted > 0


def test_verify_gate_counts_lost_instances_and_missing_suites():
    from ladderpoly import verify

    eq31 = PINNED["verify-all"]["eq31"]
    result = verify.run_suite("eq31", workloads.VERIFY_N_MAX)
    result.reports[0].instances.pop()
    assert suite_units("eq31", result) == (eq31, 1)
    assert suite_units("eq31", ValueError("no such suite")) == (eq31, eq31)
    outputs = [verify.run_suite("eq31", workloads.VERIFY_N_MAX)]
    attempted, failed, _ = VerifyAll().check(["eq31"], outputs, first_pass=True)
    assert failed == attempted - eq31 > 0  # every other suite and the remainder report are lost


def _gen_legendre(tmp_path):
    from ladderpoly import cli

    argv = gen_argv("legendre", {}, tmp_path / "gen-legendre.json")
    assert cli.main(argv) == 0
    return [("legendre", {}, argv)], [0]


def test_gen_gate_fails_on_a_corrupted_row(tmp_path):
    inputs, outputs = _gen_legendre(tmp_path)
    assert GenDeep().check(inputs, outputs, first_pass=True) == (GEN_N_MAX + 1, 0, [])
    path = tmp_path / "gen-legendre.json"
    payload = json.loads(path.read_text())
    payload["records"][7]["coefficients"][1] = "1/3"
    assert gen_row_failures("legendre", {}, payload) == 1
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for first_pass in (True, False):  # the digest alone also catches it
        assert fail_ratio(*GenDeep().check(inputs, outputs, first_pass)) > 0


def test_gen_gate_fails_on_a_missing_row_and_an_error_exit(tmp_path):
    inputs, outputs = _gen_legendre(tmp_path)
    payload = json.loads((tmp_path / "gen-legendre.json").read_text())
    del payload["records"][-1]
    assert gen_row_failures("legendre", {}, payload) == 1
    assert fail_ratio(*GenDeep().check(inputs, [2], first_pass=True)) == 1


def _in_class_request():
    request = next(r for r in request_stream(3, 0) if r["stratum"] == "body1")
    return request, FactorizeRequests().op(request)


def test_factorize_gate_fails_on_a_tampered_factorization():
    from ladderpoly.ladder import verify_factorization
    from ladderpoly.verify import standard_testers

    request, outcome = _in_class_request()
    assert request_ok(request, outcome)
    op, fac, _ = outcome
    tampered = dataclasses.replace(fac, h=fac.h * 2)
    bad = (op, tampered, verify_factorization(op, tampered, standard_testers()))
    assert not request_ok(request, bad)
    assert fail_ratio(*FactorizeRequests().check([request, request], [outcome, bad], True)) == 0.5


def test_factorize_gate_fails_when_out_of_class_is_not_refused_or_in_class_raises():
    from ladderpoly.ladder import OutOfClassError

    request, outcome = _in_class_request()
    refused = next(r for r in request_stream(3, 0) if not r["in_class"])
    assert request_ok(refused, OutOfClassError("repeated pole"))
    assert not request_ok(refused, outcome)
    assert not request_ok(request, OutOfClassError("spurious"))
    assert not request_ok(request, ZeroDivisionError("unexpected"))


def test_remainder_gate_fails_on_a_changed_outcome():
    from ladderpoly import identities

    pattern = remainder_pattern()
    report = identities.remainder_structure_report([3])
    assert [[i.params, i.ok] for i in report.instances] == pattern[:8]

    fakes = [identities.InstanceResult(params, ok) for params, ok in pattern]
    assert remainder_failures(fakes) == 0
    claim = next(i for i in fakes if "claim" in i.params)
    claim.ok = True  # a printed claim that starts to hold is a changed result
    assert remainder_failures(fakes) == 1
    assert remainder_failures(fakes[:-2]) == 3
    assert remainder_units(report) == (len(pattern), len(pattern) - 8)  # n = 4, 5 are lost
    assert remainder_units(ValueError("raised")) == (len(pattern), len(pattern))


def test_batch_checks_each_part_on_its_own_ops():
    class Part(workloads.Workload):
        def __init__(self, tag):
            self.tag = tag

        def inputs(self, seed, pass_index):
            return [f"{self.tag}{seed}", f"{self.tag}{pass_index}"]

        def op(self, item):
            return item.upper()

        def check(self, inputs, outputs, first_pass):
            bad = sum(out != item.upper() for item, out in zip(inputs, outputs))
            return len(inputs), bad, [f"{self.tag}: {bad}"] if bad else []

    batch = Batch("both", Part("a"), Part("b"))
    inputs = batch.inputs(1, 0)
    assert inputs == [(0, "a1"), (0, "a0"), (1, "b1"), (1, "b0")]
    outputs = [batch.op(item) for item in inputs]
    assert batch.check(inputs, outputs, first_pass=True) == (4, 0, [])
    outputs[3] = "wrong"
    assert batch.check(inputs, outputs, first_pass=True) == (4, 1, ["b: 1"])
