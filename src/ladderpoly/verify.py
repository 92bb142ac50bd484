"""Verification suites: oracle equivalence, identities, factorization round trips.

Each suite produces IdentityReports whose instances are exact checks.  The
random drifts used by the factorization suite come from a fixed seed so runs
are reproducible; coefficients are small rationals, degree at most four.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .algebra import MAX_EXPONENT, Polynomial, X
from .families import (
    FamilySpec,
    generate_ladder,
    make_operator,
    oracle_recurrence,
    rodrigues_chain,
    rodrigues_standard,
    X_SQ_MINUS_1,
)
# check_eq31 stays importable from here: perfbench's tracing test patches and restores it.
from .identities import DEFAULT_LAMBDAS, IdentityReport, check_eq31, identity_check  # noqa: F401
from .ladder import RAISING, LadderOperator, factorize, verify_factorization
from .weighted import WeightedExpression, as_weighted

DEFAULT_ALPHAS = (Fraction(0), Fraction(-1, 2), Fraction(1, 2), Fraction(1))

DRIFT_SEED = 103


@dataclass
class SuiteResult:
    suite: str
    n_max: int
    reports: list[IdentityReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every instance exact, and at least one checked: a run that checked
        nothing does not pass."""
        return any(r.instances for r in self.reports) and all(r.ok for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "ok": self.ok,
            "reports": [r.to_dict() for r in self.reports],
        }


def oracle_family_specs(n: int) -> list[FamilySpec]:
    """The family instances whose ladder generation is checked against the oracles."""
    specs = [
        FamilySpec("legendre", n),
        FamilySpec("chebyshev-T", n),
        FamilySpec("chebyshev-U", n),
        FamilySpec("hermite", n),
    ]
    specs += [FamilySpec("gegenbauer", n, lam=lam) for lam in DEFAULT_LAMBDAS]
    specs += [FamilySpec("laguerre", n, alpha=alpha) for alpha in DEFAULT_ALPHAS]
    return specs


def suite_oracle(n_max: int, negative_control: bool = False) -> list[IdentityReport]:
    """generate_ladder = oracle_recurrence, exactly, for every family instance.

    With negative_control set, one generated coefficient is deliberately
    shifted to prove the comparison can fail.
    """
    report = IdentityReport("oracle-equivalence")
    for n in range(n_max + 1):
        for spec in oracle_family_specs(n):
            generated = generate_ladder(spec)
            if negative_control and spec.kind == "legendre" and n == min(2, n_max):
                generated = generated + 1
            params = {"family": spec.kind, "n": str(n), **spec.params()}
            report.add(params, generated - oracle_recurrence(spec))
    return [report]


def representative_operators() -> list[tuple[str, LadderOperator]]:
    """One cataloged raising operator per family kind."""
    picks = [
        FamilySpec("legendre", 3),
        FamilySpec("assoc-legendre", 3, m=2),
        FamilySpec("gegenbauer", 3, lam=Fraction(3, 2)),
        FamilySpec("chebyshev-T", 3),
        FamilySpec("chebyshev-U", 2),
        FamilySpec("laguerre", 2, alpha=Fraction(1, 2)),
        FamilySpec("hermite", 2),
        FamilySpec("laguerre-radial", 2, alpha=Fraction(1, 2)),
        FamilySpec("coulomb-radial", 1, ell=1),
        FamilySpec("oscillator-3d", 1, ell=1),
    ]
    return [(spec.kind, make_operator(spec, RAISING)) for spec in picks]


@cache
def standard_testers() -> tuple[WeightedExpression, ...]:
    """The five testers of every factorization check, built once."""
    return (*map(as_weighted, (1, X, X * X, X_SQ_MINUS_1**3)), WeightedExpression.exp_of(-X))


def random_drifts(count: int, seed: int = DRIFT_SEED) -> list[Polynomial]:
    """Deterministic polynomial drifts, degree <= 4, coefficients p/q with
    p in [-5, 5] and q in [1, 5]."""
    rng = random.Random(seed)
    drifts = []
    for _ in range(count):
        degree = rng.randint(0, 4)
        coeffs = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(degree + 1)
        ]
        drifts.append(Polynomial(tuple(coeffs)))
    return drifts


def suite_factorization() -> list[IdentityReport]:
    """Factorization round trip for every representative operator and each of the 25 seeded drifts."""
    report = IdentityReport("factorization-round-trip")
    drifts = random_drifts(25)
    for kind, op in representative_operators():
        for index, drift in enumerate(drifts):
            for entry in verify_factorization(op, factorize(op, drift), standard_testers()).checks:
                report.record({"family": kind, "drift": str(index), **entry.params}, entry.ok, entry.discrepancy)
    return [report]


def suite_rodrigues(n_max: int) -> list[IdentityReport]:
    """Printed Rodrigues formulas and chains against the recurrence oracles."""
    report = IdentityReport("rodrigues")
    for n in range(n_max + 1):
        # the oracle suite's families but hermite, which has no n-fold form
        for spec in [s for s in oracle_family_specs(n) if s.kind != "hermite"]:
            params = {"form": "standard", "family": spec.kind, "n": str(n), **spec.params()}
            report.add(params, rodrigues_standard(spec) - oracle_recurrence(spec))
    for n in range(1, n_max + 1):
        specs = [FamilySpec("legendre", n), FamilySpec("chebyshev-U", n)]
        specs += [FamilySpec("chebyshev-T", n)] if n >= 2 else []
        specs += [FamilySpec("gegenbauer", n, lam=lam) for lam in DEFAULT_LAMBDAS]
        chained = [(spec, variant) for spec in specs for variant in ("h0-chain", "one-step-split")]
        chained += [(FamilySpec("laguerre-radial", n, alpha=alpha), "h0-chain") for alpha in DEFAULT_ALPHAS]
        for spec, variant in chained:
            params = {"form": variant, "family": spec.kind, "n": str(n), **spec.params()}
            report.add(params, rodrigues_chain(spec, variant) - oracle_recurrence(spec))
    for n in range(2, n_max + 1):
        radial = rodrigues_chain(FamilySpec("hermite", n), "h0-chain")
        params = {"form": "radial-chain", "family": "hermite", "n": str(n)}
        report.add(params, radial - oracle_recurrence(FamilySpec("hermite", n)))
    return [report]


def _identities(*ids: str):
    """Runner for identity checks, looked up in identities._CHECKS when it runs."""
    return lambda n_max: [identity_check(i, n_max) for i in ids]


def _as_given(n_max: int) -> int:
    return n_max


#: Every suite but ``all``, in the order ``all`` runs them: name -> (n rule,
#: runner).  The n rule maps the requested n_max to the one the runner gets,
#: caps included; a runner takes only that n_max and returns its reports, and
#: ``run_suite`` passes the negative control to ``suite_oracle`` alone.
_SUITES = {
    "oracle": (_as_given, suite_oracle),
    "eq31": (_as_given, _identities("eq31")),
    "remark3term": (lambda n: max(n, 3), _identities("remark3term", "remark3term-legendre")),
    "eq34": (_as_given, _identities("eq34", "eq33-35")),
    "assoc-relations": (lambda n: min(n, 12), _identities("assoc-relations")),
    "factorization": (_as_given, lambda n_max: suite_factorization()),
    "rodrigues": (lambda n: min(n, 12), suite_rodrigues),
}

#: ``all`` runs every suite above, then these identity checks.
_ALL_ONLY = (_as_given, _identities("legendre-relations", "gegenbauer-updown", "chebyshev-relations"))

SUITE_NAMES = (*_SUITES, "all")


def check_n_max(n_max: int) -> None:
    """Refuse an n_max past ``MAX_EXPONENT``, the bound on every degree, before any work."""
    if n_max > MAX_EXPONENT:
        raise ValueError(f"n_max {n_max} exceeds the limit {MAX_EXPONENT}")


def run_suite(suite: str, n_max: int, negative_control: bool = False) -> SuiteResult:
    """Run one named verification suite; ``all`` runs every suite."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    check_n_max(n_max)
    if negative_control and suite not in ("oracle", "all"):
        raise ValueError(f"the negative control corrupts only the oracle suite, which {suite!r} does not run")
    entries = [*_SUITES.values(), _ALL_ONLY] if suite == "all" else [_SUITES[suite]]
    result = SuiteResult(suite, n_max)
    for rule, runner in entries:
        n = rule(n_max)
        result.reports += suite_oracle(n, negative_control) if runner is suite_oracle else runner(n)
    return result
