"""The benchmark workloads: inputs, the timed section and the correctness gates.

There are two workloads.  ``gen-verify`` runs three parts one after another
in each pass: deep ``gen`` tables, every verify suite and the remainder
report.  ``factorize-requests`` is a closed loop of small requests.

Each workload runs in passes.  A pass is one fresh worker process (see
``worker.py``): it imports ladderpoly, builds its inputs from the seed and the
pass index, runs the timed section, and only then checks every output.  The
timed section calls the package through module attributes
(``cli.main``, ``verify.run_suite``, ...), so the tracer's patches apply.

An *op* is one call the benchmark makes into the package (a ``gen`` table, a
suite, the remainder report, a request); a *unit* is what ``ops_per_s`` and
the failure counts count (a generated row, a checked or recorded instance, a
request).  The latency metrics time *requests*: for factorize-requests a
request is one op, for gen-verify it is the whole pass, as for a user who
runs the batch.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from stats import samples_for

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())

#: The tail percentile the latency metrics report (``op_p98_ms``).
TAIL_PERCENTILE = 98.0


class Workload:
    name = ""
    #: fewest passes per run, whatever ``--seconds`` says
    min_passes = 2
    #: fewest ops per run, so that the tail percentile has ten samples beyond it
    min_ops = 0
    #: whether each op is a request; otherwise the pass is the request
    op_is_request = False

    def inputs(self, seed: int, pass_index: int):
        raise NotImplementedError

    def run(self, inputs, span) -> tuple[list, list[float]]:
        """The timed section: one output and one latency per op."""
        outputs, latencies = [], []
        for item in inputs:
            with span(self.op_span(item)):
                started = perf_counter()
                try:
                    outputs.append(self.op(item))
                except Exception as exc:  # a failed op is a result; the check counts it
                    outputs.append(exc)
                latencies.append(perf_counter() - started)
        return outputs, latencies

    def op_span(self, item) -> str | None:
        """Name of a benchmark-level span around one op, if the op has one."""
        return None

    def op(self, item):
        raise NotImplementedError

    def check(self, inputs, outputs, first_pass: bool) -> tuple[int, int, list[str]]:
        """(units attempted, units failed, first failure messages)."""
        raise NotImplementedError

    def extras(self, outputs) -> dict[str, float]:
        """Per-layer values read from the outputs of a traced pass."""
        return {}


# ---------------------------------------------------------------------------
# gen-deep, the first part of gen-verify: high-degree coefficient tables through the CLI.
# ---------------------------------------------------------------------------

GEN_N_MAX = 60
GEN_TABLES = (
    ("legendre", {}),
    ("gegenbauer", {"lambda": "3/2"}),
    ("laguerre", {"alpha": "1/2"}),
    ("hermite", {}),
    ("chebyshev-T", {}),
)


def gen_argv(family: str, params: dict[str, str], out: Path) -> list[str]:
    argv = ["gen", "--family", family]
    for key, value in params.items():
        argv += [f"--{key}", value]
    return argv + ["--n-max", str(GEN_N_MAX), "--format", "json", "--out", str(out)]


def gen_row_failures(family: str, params: dict[str, str], payload: dict) -> int:
    """Rows of a generated table that are missing or differ from ``oracle_recurrence``."""
    from ladderpoly.algebra import Polynomial
    from ladderpoly.families import FamilySpec, oracle_recurrence

    fields = {"alpha": "alpha", "lambda": "lam"}
    kwargs = {fields[key]: Fraction(value) for key, value in params.items()}
    rows = {record["n"]: record["coefficients"] for record in payload.get("records", [])}
    failed = 0
    for n in range(GEN_N_MAX + 1):
        coefficients = rows.get(n)
        expected = oracle_recurrence(FamilySpec(family, n, **kwargs))
        if coefficients is None or Polynomial(tuple(Fraction(c) for c in coefficients)) != expected:
            failed += 1
    return failed


class GenDeep(Workload):
    name = "gen-deep"

    def inputs(self, seed, pass_index):
        import ladderpoly.cli  # noqa: F401  (set-up includes the import)

        WORK.mkdir(exist_ok=True)
        return [
            (family, params, gen_argv(family, params, WORK / f"gen-{family}.json"))
            for family, params in GEN_TABLES
        ]

    def op(self, item):
        from ladderpoly import cli

        return cli.main(item[2])

    def check(self, inputs, outputs, first_pass):
        """Every table's bytes must equal the pinned digest.  The first pass of a
        run also compares every row with the recurrence oracle; the later passes
        are covered by the digest, since equal bytes hold equal rows."""
        attempted = failed = 0
        messages = []
        for (family, params, argv), result in zip(inputs, outputs):
            rows = GEN_N_MAX + 1
            attempted += rows
            if result != 0:
                failed += rows
                messages.append(f"gen {family}: returned {result!r}")
                continue
            data = Path(argv[-1]).read_bytes()
            bad = gen_row_failures(family, params, json.loads(data)) if first_pass else 0
            if hashlib.sha256(data).hexdigest() != PINNED["gen-deep"][family]:
                bad = rows
                messages.append(f"gen {family}: output digest differs from the pinned one")
            elif bad:
                messages.append(f"gen {family}: {bad} rows differ from the oracle")
            failed += bad
        return attempted, failed, messages


# ---------------------------------------------------------------------------
# verify-all, the second part of gen-verify: every suite except "all" at one
# n_max, then the remainder report.
# ---------------------------------------------------------------------------

VERIFY_N_MAX = 6
#: the n range of ``identities.remainder_structure_report``
REMAINDER_NS = (3, 4, 5)
#: the op that stands for the remainder report among the suite names
REMAINDER = "remainder"


def suite_units(suite: str, result) -> tuple[int, int]:
    """(instances attempted, instances failed) of one suite.  Every instance must
    be exact and the suite must check exactly its pinned number of instances; a
    lost or extra instance is a failure, and a suite that raised or did not run
    fails all its pinned instances."""
    expected = PINNED["verify-all"].get(suite, 0)
    if result is None or isinstance(result, Exception):
        return max(expected, 1), max(expected, 1)
    instances = [inst for report in result.reports for inst in report.instances]
    failed = sum(not inst.ok for inst in instances) + abs(len(instances) - expected)
    return max(expected, len(instances)), failed


def remainder_pattern() -> list:
    """The pinned (params, ok) pairs of the remainder report for ``REMAINDER_NS``."""
    return [entry for entry in PINNED["remainder-report"] if int(entry[0]["n"]) in REMAINDER_NS]


def remainder_failures(instances) -> int:
    """Recorded (params, ok) pairs that differ from the pinned pattern, plus any
    missing or extra ones.  The paper's printed leading-term claims are pinned
    as failing, so a claim that starts to hold is a failure too."""
    pinned = remainder_pattern()
    got = [[inst.params, inst.ok] for inst in instances]
    return sum(a != b for a, b in zip(got, pinned)) + abs(len(got) - len(pinned))


def remainder_units(result) -> tuple[int, int]:
    """(instances attempted, instances failed) of the remainder report; a report
    that raised or did not run fails every pinned instance."""
    expected = len(remainder_pattern())
    if result is None or isinstance(result, Exception):
        return expected, expected
    return max(expected, len(result.instances)), remainder_failures(result.instances)


class VerifyAll(Workload):
    name = "verify-all"
    min_passes = 1

    def inputs(self, seed, pass_index):
        from ladderpoly import identities, verify  # noqa: F401

        return [s for s in verify.SUITE_NAMES if s != "all"] + [REMAINDER]

    def op_span(self, item):
        return None if item == REMAINDER else f"verify.suite.{item}"

    def op(self, item):
        from ladderpoly import identities, verify

        if item == REMAINDER:
            return identities.remainder_structure_report(list(REMAINDER_NS))
        return verify.run_suite(item, VERIFY_N_MAX)

    def check(self, inputs, outputs, first_pass):
        results = dict(zip(inputs, outputs))
        attempted = failed = 0
        messages = []
        for suite in sorted(set(PINNED["verify-all"]) | (set(inputs) - {REMAINDER})):
            units, bad = suite_units(suite, results.get(suite))
            attempted += units
            failed += bad
            if bad:
                messages.append(f"suite {suite}: {bad} of {units} instances failed or lost")
        units, bad = remainder_units(results.get(REMAINDER))
        attempted += units
        failed += bad
        if bad:
            messages.append(f"remainder report: {bad} of {units} instances differ from the pinned pattern")
        return attempted, failed, messages

    def extras(self, outputs):
        return {
            f"verify.suite.{result.suite}.instances": sum(len(r.instances) for r in result.reports)
            for result in outputs
            if hasattr(result, "suite")
        }


# ---------------------------------------------------------------------------
# factorize-requests: a closed loop of one client sending seeded requests.
# ---------------------------------------------------------------------------

#: (kind, n range, parameter choices, directions).  ``None`` draws m in 0..n-1.
REQUEST_FAMILIES = (
    ("legendre", (1, 8), {}, ("raising", "lowering")),
    ("assoc-legendre", (2, 8), {"m": None}, ("raising", "lowering")),
    ("gegenbauer", (1, 8), {"lam": ("1/2", "1", "3/2", "2")}, ("raising", "lowering")),
    ("chebyshev-T", (1, 8), {}, ("raising", "lowering")),
    ("chebyshev-U", (1, 8), {}, ("raising", "lowering")),
    ("laguerre", (1, 8), {"alpha": ("0", "1/2", "1")}, ("raising", "lowering")),
    ("hermite", (1, 8), {}, ("raising", "lowering")),
    ("laguerre-radial", (1, 8), {"alpha": ("0", "1/2", "1")}, ("raising", "lowering")),
    ("coulomb-radial", (1, 8), {"ell": ("0", "1", "2", "3")}, ("raising",)),
    ("oscillator-3d", (1, 8), {"ell": ("0", "1", "2", "3")}, ("raising",)),
)

#: What every family gets in every pass: drifts with 0, 1 or 2 simple body
#: poles, and one out-of-class drift (a repeated pole for the even-numbered
#: families, an irreducible quadratic for the odd-numbered ones).
FAMILY_STRATA = ("body0",) * 6 + ("body1",) * 2 + ("body2", "out")

#: The heavy tail, five requests a pass.  Its operators have no finite pole but
#: 0, so the root search enumerates the divisors of the product of the two tail
#: poles once and the tail's cost is set by the pole magnitudes, not the family.
TAIL_FAMILIES = ("hermite", "coulomb-radial", "oscillator-3d", "hermite", "coulomb-radial")

BODY_MAGNITUDE = (0.0, 2.0)  # log10 range of body pole numerators: 1 .. 100
TAIL_MAGNITUDE = (900_000, 1_000_000)  # the two tail poles are integers in this range
REQUESTS_PER_PASS = len(REQUEST_FAMILIES) * len(FAMILY_STRATA) + len(TAIL_FAMILIES)
#: the testers of ``verify.standard_testers``, each checked on every request
STANDARD_TESTERS = 5


def _ratio(rng: random.Random) -> str:
    return f"({rng.choice((-1, 1)) * rng.randint(1, 5)}/{rng.randint(1, 3)})"


def _linear(q: int, p: int) -> str:
    """q*x - p, printed with the sign folded."""
    return f"({q}*x {'-' if p > 0 else '+'} {abs(p)})"


def _pole(rng: random.Random, q: int, p: int, power: str = "") -> str:
    return f"{_ratio(rng)}/{_linear(q, p)}{power}"


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _request(rng: random.Random, family: tuple, stratum: str, direction: str) -> dict:
    kind, (lo, hi), choices, _ = family
    n = rng.randint(lo, hi)
    params = {
        key: str(rng.randint(0, n - 1)) if values is None else rng.choice(values)
        for key, values in choices.items()
    }
    terms = [f"{_ratio(rng)}*x^{k}" if k else _ratio(rng) for k in range(rng.randint(0, 2) + 1)]
    if stratum == "tail":
        terms += [_pole(rng, 1, _sign(rng) * rng.randint(*TAIL_MAGNITUDE)) for _ in range(2)]
    elif stratum == "repeated":
        terms.append(_pole(rng, rng.randint(1, 3), _sign(rng) * rng.randint(1, 100), "^2"))
    elif stratum == "irreducible":
        terms.append(f"{_ratio(rng)}/(x^2 + {rng.randint(1, 9)})")
    else:
        for _ in range(int(stratum[-1])):
            p = _sign(rng) * round(10 ** rng.uniform(*BODY_MAGNITUDE))
            terms.append(_pole(rng, rng.randint(1, 3), p))
    return {
        "family": kind,
        "n": n,
        "params": params,
        "direction": direction,
        "drift": " + ".join(terms),
        "in_class": stratum not in ("repeated", "irreducible"),
        "stratum": stratum,
    }


def request_stream(seed: int, pass_index: int) -> list[dict]:
    """The requests of one pass, in seeded random order.

    The composition is the same in every pass: each family gets
    ``FAMILY_STRATA`` (directions alternating where the family has both) and
    the tail gets ``TAIL_FAMILIES``; the seed draws the indices, parameters,
    coefficients and pole positions.
    """
    rng = random.Random(seed * 1_000_003 + pass_index)
    by_kind = {f[0]: f for f in REQUEST_FAMILIES}
    requests = []
    for index, family in enumerate(REQUEST_FAMILIES):
        directions = family[3]
        for k, stratum in enumerate(FAMILY_STRATA):
            if stratum == "out":
                stratum = "repeated" if index % 2 == 0 else "irreducible"
            requests.append(_request(rng, family, stratum, directions[k % len(directions)]))
    for kind in TAIL_FAMILIES:
        requests.append(_request(rng, by_kind[kind], "tail", rng.choice(by_kind[kind][3])))
    rng.shuffle(requests)
    return requests


def _spec(request: dict):
    from ladderpoly.families import FamilySpec

    params = request["params"]
    return FamilySpec(
        request["family"],
        request["n"],
        alpha=Fraction(params["alpha"]) if "alpha" in params else None,
        lam=Fraction(params["lam"]) if "lam" in params else None,
        m=int(params["m"]) if "m" in params else None,
        ell=int(params["ell"]) if "ell" in params else None,
    )


def request_ok(request: dict, outcome) -> bool:
    """An in-class request verifies exactly on every standard tester; an
    out-of-class request raised OutOfClassError."""
    from ladderpoly.ladder import OutOfClassError

    if not request["in_class"]:
        return isinstance(outcome, OutOfClassError)
    if isinstance(outcome, Exception):
        return False
    report = outcome[2]
    return report.ok and len(report.checks) == STANDARD_TESTERS


class FactorizeRequests(Workload):
    name = "factorize-requests"
    min_ops = samples_for(TAIL_PERCENTILE)
    op_is_request = True

    def inputs(self, seed, pass_index):
        import ladderpoly.cli  # noqa: F401  (the same modules `ladderpoly factorize` loads)

        return request_stream(seed, pass_index)

    def op(self, request):
        """What ``ladderpoly factorize`` does with a reduced drift."""
        from ladderpoly import families, ladder, parsing, verify

        op = families.make_operator(_spec(request), request["direction"])
        fac = ladder.factorize(op, parsing.parse_expression(request["drift"]))
        return op, fac, ladder.verify_factorization(op, fac, verify.standard_testers())

    def check(self, inputs, outputs, first_pass):
        failed = 0
        messages = []
        for request, outcome in zip(inputs, outputs):
            if not request_ok(request, outcome):
                failed += 1
                messages.append(f"request {request['family']} {request['drift']!r}: {outcome!r}"[:300])
        return len(inputs), failed, messages


# ---------------------------------------------------------------------------
# gen-verify: the batch parts, one after another in each pass.
# ---------------------------------------------------------------------------


class Batch(Workload):
    """Several workloads run one after another in one pass; an op is tagged
    with the index of its part."""

    def __init__(self, name: str, *parts: Workload):
        self.name = name
        self.parts = parts
        self.min_passes = max(part.min_passes for part in parts)

    def inputs(self, seed, pass_index):
        return [(i, item) for i, part in enumerate(self.parts) for item in part.inputs(seed, pass_index)]

    def op_span(self, tagged):
        return self.parts[tagged[0]].op_span(tagged[1])

    def op(self, tagged):
        return self.parts[tagged[0]].op(tagged[1])

    def _split(self, inputs, outputs, index):
        pairs = [(item, out) for (i, item), out in zip(inputs, outputs) if i == index]
        return [item for item, _ in pairs], [out for _, out in pairs]

    def check(self, inputs, outputs, first_pass):
        attempted = failed = 0
        messages = []
        for index, part in enumerate(self.parts):
            units, bad, notes = part.check(*self._split(inputs, outputs, index), first_pass)
            attempted += units
            failed += bad
            messages += notes
        return attempted, failed, messages

    def extras(self, outputs):
        return {key: value for part in self.parts for key, value in part.extras(outputs).items()}


WORKLOADS = {w.name: w for w in (Batch("gen-verify", GenDeep(), VerifyAll()), FactorizeRequests())}
