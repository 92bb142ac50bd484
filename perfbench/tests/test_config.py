"""BENCHMARK.json, run.py and the request stream agree with each other."""

import json
import re
from collections import Counter

from run import END_TO_END, per_layer_names
from workloads import (
    FAMILY_STRATA,
    REQUEST_FAMILIES,
    REQUESTS_PER_PASS,
    ROOT,
    TAIL_FAMILIES,
    TAIL_MAGNITUDE,
    WORKLOADS,
    request_stream,
)

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_py_reports():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] == per_layer_names()
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in CONFIG["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONFIG["workloads"])


def test_request_stream_is_seeded():
    assert request_stream(4, 2) == request_stream(4, 2)
    assert request_stream(4, 2) != request_stream(5, 2)
    assert request_stream(4, 2) != request_stream(4, 3)


def test_request_stream_keeps_its_mix_in_every_pass():
    for pass_index in range(3):
        requests = request_stream(9, pass_index)
        assert len(requests) == REQUESTS_PER_PASS == 105
        mix = Counter((r["family"], r["stratum"]) for r in requests if r["stratum"] != "tail")
        for index, (kind, *_) in enumerate(REQUEST_FAMILIES):
            out = "repeated" if index % 2 == 0 else "irreducible"
            expected = Counter(out if s == "out" else s for s in FAMILY_STRATA)
            assert {s: mix[(kind, s)] for s in expected} == expected
        assert sum(not r["in_class"] for r in requests) == 10
        tail = [r for r in requests if r["stratum"] == "tail"]
        assert sorted(r["family"] for r in tail) == sorted(TAIL_FAMILIES)
        for r in tail:
            poles = [int(p) for p in re.findall(r"/\(1\*x [-+] (\d+)\)", r["drift"])]
            assert len(poles) == 2 and all(TAIL_MAGNITUDE[0] <= p <= TAIL_MAGNITUDE[1] for p in poles)


def test_latency_metrics_time_requests_or_whole_passes():
    from run import request_latencies

    passes = [{"run_s": 1.0, "op_s": [0.25, 0.75]}, {"run_s": 2.0, "op_s": [2.0]}]
    assert request_latencies(WORKLOADS["factorize-requests"], passes) == [0.25, 0.75, 2.0]
    assert request_latencies(WORKLOADS["gen-verify"], passes) == [1.0, 2.0]
