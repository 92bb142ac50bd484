"""One benchmark pass in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --pass K \
        --spawned T --mode setup|run|trace

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; on Linux that clock is system-wide, so set-up time runs from
the spawn to the end of input generation.  ``setup`` mode stops there.
``trace`` mode wraps the package's layers before the timed section, removes
the wrappers after it, and writes the spans to ``.bench_work``.  The result is
one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time

import spans
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.pass_index)
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = spans.Tracer() if args.mode == "trace" else None
    cached = spans.install(tracer) if tracer else {}

    def span(name):
        return tracer.span(name) if tracer and name else contextlib.nullcontext()

    started = time.perf_counter()
    outputs, latencies = workload.run(inputs, span)
    result["run_s"] = time.perf_counter() - started
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["op_s"] = latencies

    if tracer:
        tracer.uninstall()
        for name, fn in cached.items():
            info = fn.cache_info()
            tracer.counters[f"{name}.hit_ratio"] = info.hits / max(1, info.hits + info.misses)
        result["spans"] = tracer.summary()
        result["span_count"] = len(tracer.starts)
        result["counters"] = tracer.counters
        result["extras"] = workload.extras(outputs)
        tracer.dump(workloads.WORK / f"spans-{args.workload}.bin")

    attempted, failed, messages = workload.check(inputs, outputs, first_pass=args.pass_index == 0)
    result.update(attempted=attempted, failed=failed, messages=messages[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
