"""Repeat benchmark runs over several seeds and summarize their spread.

    python3 perfbench/repeat.py --workloads gen-verify,factorize-requests --seeds 10 \
        [--first-seed 1] [--seconds 55] [--trace 0] [--out perfbench/results/NAME.json]

Runs ``run.py`` once per workload and seed, one run at a time, and reports
for each end-to-end metric the median, the quartiles and the spread (the
inter-quartile distance as a share of the median).  A spread at or above a
third of the metric's bound in ``BENCHMARK.json`` is flagged; ``setup_s`` is
exempt from the spread rule, as only its median is compared.  With
``--out`` the runs and the summary are written as JSON, together with the
run metadata (``git describe`` label, Python version, CPU count, seeds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread
from workloads import ROOT

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return meta, {**json.loads(lines[-1]), "wall_s": time.monotonic() - started}


def summarize(results: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        entry = {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread(values)}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["steady"] = name == "setup_s" or entry["spread"] < bounds[name] / 3
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            meta, result = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **result})
            report["meta"] = {k: meta[k] for k in ("label", "python", "nproc")}
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} wall={result['wall_s']:.1f}s "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary = summarize(runs, bounds) if len(runs) >= 2 else {}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, entry in summary.items():
            flag = "" if entry.get("steady", True) else "  NOT STEADY"
            print(f"  {name:40s} median {entry['median']:<12.6g} spread {entry['spread']:.4f}{flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
