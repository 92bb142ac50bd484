"""Run one ladderpoly benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass is a fresh single-threaded
worker process (``worker.py``), started one at a time, so the package's
``lru_cache``s start cold and no two passes share a core.  Passes repeat
while at least half of the next one fits in ``--seconds``, so a run measures
about ``--seconds`` of passes, but never fewer than the workload's minimum.  Outputs are checked after each timed section.

``--trace 0`` reports the end-to-end metrics: set-up time (median over
several set-ups), the median pass, request latency percentiles, and peak
RSS.  ``--trace 1`` alternates an untraced and a traced pass on the same
inputs and reports the per-layer metrics of the traced passes, with the
tracing overhead as traced minus untraced ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spans import CHECK_IDS
from stats import percentile, tail_percentile
from workloads import PINNED, ROOT, TAIL_PERCENTILE, WORK, WORKLOADS

BENCH = Path(__file__).resolve().parent

#: set-up-only processes per run, on top of the set-up of every pass
SETUP_SAMPLES = 9
#: no pass starts after this many seconds, so a run ends well within 180 s
HARD_STOP_S = 110
RUN_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    (f"op_p{TAIL_PERCENTILE:g}_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

#: Traced span name -> the per-layer fields reported for it.
SPAN_FIELDS = {
    "algebra.Polynomial.divmod": ("calls", "self_s"),
    "algebra.poly_gcd": ("calls", "self_s"),
    "algebra.Polynomial.mul": ("calls", "self_s"),
    "algebra.RationalFunction.new": ("calls", "self_s"),
    "algebra.partial_fractions": ("calls", "self_s"),
    "algebra.rational_roots": ("calls", "self_s"),
    "weighted.WeightedExpression.diff": ("calls", "self_s"),
    "weighted.WeightedExpression.mul": ("calls", "self_s"),
    "weighted.WeightedExpression.new": ("calls", "self_s"),
    "ladder.factorize": ("calls", "self_s"),
    "ladder.verify_factorization": ("calls", "self_s"),
    "ladder.LadderOperator.apply": ("calls", "self_s"),
    "ladder.apply_chain": ("calls", "self_s"),
    "families.generate_ladder": ("calls", "self_s"),
    "families.oracle_recurrence": ("calls", "self_s"),
    "families.rodrigues_standard": ("self_s",),
    "families.rodrigues_chain": ("self_s",),
    "families.generate_assoc_legendre": ("self_s",),
    **{f"identities.check.{check_id}": ("self_s",) for check_id in CHECK_IDS},
    "identities.remainder_term": ("calls", "self_s"),
    "identities.remainder_expansion": ("calls", "self_s"),
    "parsing.parse_expression": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}

#: Suites of the gen-verify workload, each reported as wall time and instances.
SUITES = tuple(PINNED["verify-all"])

LAYERS = ("algebra", "weighted", "ladder", "families", "identities", "verify", "parsing", "cli")

UNITS = {"calls": "count", "self_s": "s", "s": "s", "instances": "count"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    names = [(f"{span}.{field}", UNITS[field]) for span, fields in SPAN_FIELDS.items() for field in fields]
    names += [
        ("algebra.poly_gcd.useful_ratio", "ratio"),
        ("algebra.coeff_bits.max", "bits"),
        ("families.generate_ladder.hit_ratio", "ratio"),
        ("families.oracle_recurrence.hit_ratio", "ratio"),
    ]
    names += [(f"verify.suite.{suite}.{field}", UNITS[field]) for suite in SUITES for field in ("s", "instances")]
    names += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("trace.spans", "count"),
        ("trace.self_sum_s", "s"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


class BenchError(RuntimeError):
    pass


def git_label() -> str:
    """``git describe`` of the checkout, without looking above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = worker_env()

    def spawn(self, pass_index: int, mode: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run was complete")
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--pass", str(pass_index),
            "--mode", mode, "--spawned", repr(time.monotonic()),
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker pass {pass_index} ({mode}) timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker pass {pass_index} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(runner: Runner, workload, seconds: float, traced: bool) -> tuple[list[float], list[dict]]:
    """Set-up samples and passes; traced runs give (untraced, traced) pairs."""
    started = time.monotonic()
    runner.spawn(0, "setup")  # warm-up: bytecode caches, file cache
    setups = [] if traced else [runner.spawn(0, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    while True:
        began = time.monotonic()
        index = len(passes) // 2 if traced else len(passes)
        passes.append(runner.spawn(index, "run"))
        if traced:
            passes.append(runner.spawn(index, "trace"))
        now = time.monotonic()
        ops = sum(len(p["op_s"]) for p in passes)
        enough = len(passes) >= (2 if traced else workload.min_passes) and (traced or ops >= workload.min_ops)
        if enough and now + (now - began) / 2 > started + seconds or now - started > HARD_STOP_S:
            return setups, passes


def request_latencies(workload, passes: list[dict]) -> list[float]:
    """One latency per request: per op for a request workload, else per pass."""
    if workload.op_is_request:
        return [s for p in passes for s in p["op_s"]]
    return [p["run_s"] for p in passes]


def end_to_end(workload, setups: list[float], passes: list[dict]) -> dict[str, float]:
    requests = request_latencies(workload, passes)
    return {
        "setup_s": median(setups + [p["setup_s"] for p in passes]),
        "run_s": median(p["run_s"] for p in passes),
        "ops_per_s": median(p["attempted"] / p["run_s"] for p in passes),
        "op_p50_ms": percentile(requests, 50) * 1000,
        f"op_p{TAIL_PERCENTILE:g}_ms": percentile(requests, TAIL_PERCENTILE) * 1000,
        "peak_rss_mib": median(p["peak_rss_mib"] for p in passes),
    }


def traced_values(p: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (untraced-run fields are added later)."""
    spans = p["spans"]
    values: dict[str, float] = {}
    for span, fields in SPAN_FIELDS.items():
        calls, self_s, _ = spans.get(span, (0, 0.0, 0.0))
        values.update({f"{span}.calls": calls, f"{span}.self_s": self_s})
    gcd_calls = spans.get("algebra.poly_gcd", (0,))[0]
    counters = p["counters"]
    values["algebra.poly_gcd.useful_ratio"] = counters.get("algebra.poly_gcd.useful", 0) / max(1, gcd_calls)
    values["algebra.coeff_bits.max"] = counters.get("algebra.coeff_bits.max", 0)
    for name in ("families.generate_ladder", "families.oracle_recurrence"):
        values[f"{name}.hit_ratio"] = counters.get(f"{name}.hit_ratio", 0.0)
    for suite in SUITES:
        values[f"verify.suite.{suite}.s"] = spans.get(f"verify.suite.{suite}", (0, 0.0, 0.0))[2]
        values[f"verify.suite.{suite}.instances"] = p["extras"].get(f"verify.suite.{suite}.instances", 0)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(v[1] for k, v in spans.items() if k.split(".")[0] == layer)
    values["trace.spans"] = p["span_count"]
    values["trace.self_sum_s"] = sum(v[1] for v in spans.values())
    values["trace.run_s"] = p["run_s"]
    return values


def per_layer(passes: list[dict]) -> dict[str, float]:
    untraced = [p for p in passes if "spans" not in p]
    traced = [traced_values(p) for p in passes if "spans" in p]
    out = {name: (max if name.endswith(".max") else median)(v[name] for v in traced) for name in traced[0]}
    out["trace.untraced_run_s"] = median(p["run_s"] for p in untraced)
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ladderpoly" / "__init__.py").is_file():
        print(f"error: no ladderpoly sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "label": git_label(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("meta " + json.dumps(meta), flush=True)

    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed, time.monotonic() + RUN_TIMEOUT_S)
    try:
        setups, passes = run_passes(runner, workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    requests = len(request_latencies(workload, passes))
    tail = tail_percentile(requests)
    print(
        f"passes {len(passes)}  requests {requests}  set-ups {len(setups) + len(passes)}  "
        f"highest percentile with ten requests beyond it: {f'p{tail:g}' if tail else 'none'}"
    )
    for p in passes:
        for message in p["messages"]:
            print(f"FAIL {message}")
    print(f"fail_ratio {failed / max(1, attempted):.6g} ({failed}/{attempted} units)")

    if args.trace:
        values = per_layer(passes)
        units = dict(per_layer_names())
    else:
        values = end_to_end(workload, setups, passes)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
