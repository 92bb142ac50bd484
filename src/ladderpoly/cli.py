"""Command-line interface: family tables, verification suites, factorizations.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error.  An
input that exhausts the recursion limit or memory also ends as an ``error:``
line with exit code 2, never as a traceback.

Coefficients serialize as exact "p/q" strings.  CSV rows list coefficients in
ascending degree order; LaTeX renders descending.  Neither carries a weight,
so a table whose members keep one (odd-m associated Legendre) needs JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import Polynomial
from .families import FamilySpec, KINDS, generate_assoc_legendre, generate_ladder, make_operator
from .ladder import LOWERING, OutOfClassError, RAISING, factorize, rational_part, verify_factorization
from .parsing import ParseError, parse_expression
from .verify import SUITE_NAMES, run_suite, standard_testers
from .weighted import WeightedExpression, as_weighted

def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderpoly",
        description="Exact ladder-operator toolkit for classical orthogonal polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen",
        help="emit family coefficient tables",
        description="Generate family polynomials by ladder iteration. CSV rows are "
        "'n,c0,c1,...' in ascending degree; LaTeX lines render descending.",
    )
    gen.add_argument("--family", required=True, help="family kind, e.g. legendre or chebyshev-T")
    gen.add_argument("--n-max", type=int, required=True)
    gen.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    gen.add_argument("--alpha", type=_fraction, help="laguerre family parameter (p/q)")
    gen.add_argument("--lambda", dest="lam", type=_fraction, help="gegenbauer parameter (p/q)")
    gen.add_argument("--m", type=int, help="associated Legendre order")
    gen.add_argument("--ell", type=int, help="radial angular momentum (factorize-only families)")
    gen.add_argument("--out", help="output file (default stdout)")

    verify = sub.add_parser(
        "verify",
        help="run a verification suite",
        description="Exit code 0 when every instance passes, 1 otherwise.",
    )
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    verify.add_argument("--n-max", type=int, required=True)
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    verify.add_argument(
        "--negative-control",
        action="store_true",
        help="testing hook: corrupt one generated coefficient so the oracle suite (and all) must fail",
    )

    fac = sub.add_parser(
        "factorize",
        help="print the drift factorization f1 * D * g2 + h of a family operator",
    )
    fac.add_argument("--family", required=True)
    fac.add_argument("--direction", choices=(RAISING, LOWERING), default=RAISING)
    fac.add_argument("--n", type=int, required=True)
    fac.add_argument("--drift", default="0", help="reduced drift t = h/a as an expression")
    fac.add_argument(
        "--drift-is-h",
        action="store_true",
        help="interpret --drift as h itself and divide by the operator coefficient a",
    )
    fac.add_argument("--alpha", type=_fraction)
    fac.add_argument("--lambda", dest="lam", type=_fraction)
    fac.add_argument("--m", type=int)
    fac.add_argument("--ell", type=int)
    fac.add_argument("--json", action="store_true")
    return parser


def _resolve_kind(name: str) -> str:
    lowered = name.lower()
    for kind in KINDS:
        if kind.lower() == lowered:
            return kind
    raise ValueError(f"unknown family {name!r}; known: {', '.join(KINDS)}")


def _family_spec(args, n: int) -> FamilySpec:
    kind = _resolve_kind(args.family)
    return FamilySpec(
        kind,
        n,
        alpha=getattr(args, "alpha", None),
        lam=getattr(args, "lam", None),
        m=getattr(args, "m", None),
        ell=getattr(args, "ell", None),
    )


def _coeff_strings(p: Polynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def _weighted_json(w: WeightedExpression) -> dict:
    return {
        "coeff": {"num": _coeff_strings(w.coeff.num), "den": _coeff_strings(w.coeff.den)},
        "powers": [[str(pf.root), str(pf.exponent)] for pf in w.powers],
        "expArg": _coeff_strings(w.exp_arg),
    }


def _gen_members(args) -> tuple[FamilySpec, list[tuple[int, WeightedExpression]]]:
    spec = _family_spec(args, args.n_max)  # rejects a missing m and any m outside 0..n_max
    if spec.kind == "assoc-legendre":
        return spec, [(n, generate_assoc_legendre(n, spec.m)) for n in range(spec.m, args.n_max + 1)]
    return spec, [(n, as_weighted(generate_ladder(spec.with_n(n)))) for n in range(args.n_max + 1)]


def _render_gen(args, spec: FamilySpec, members: list[tuple[int, WeightedExpression]]) -> str:
    if args.format == "json":
        records = []
        for n, member in members:
            weight = _weighted_json(member)
            records.append({"n": n, "coefficients": weight.pop("coeff")["num"]})
            if member.powers:  # (x^2-1)^(m/2) for odd m; P_n^m has no exponential factor
                records[-1]["weight"] = weight
        return json.dumps({"family": spec.kind, "params": spec.params(), "records": records}, indent=2)
    if any(member.powers for _, member in members):
        raise ValueError(f"{args.format} output cannot carry the weight of these {spec.kind} members; use --format json")
    if args.format == "csv":
        return "\n".join(",".join([str(n)] + _coeff_strings(member.coeff.num)) for n, member in members)
    return "\n".join(f"{spec.symbol % n}({spec.var}) = {member.coeff.num.to_latex(spec.var)}" for n, member in members)


def cmd_gen(args) -> int:
    text = _render_gen(args, *_gen_members(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    result = run_suite(args.suite, args.n_max, negative_control=args.negative_control)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for report in result.reports:
            print(report.summary())
            for failure in report.failures():
                print(f"  FAIL {failure.params} discrepancy: {failure.discrepancy}")
        print("PASS" if result.ok else "FAIL")
    return 0 if result.ok else 1


def cmd_factorize(args) -> int:
    spec = _family_spec(args, args.n)
    op = make_operator(spec, args.direction)
    drift = parse_expression(args.drift)
    if args.drift_is_h:
        drift = rational_part(as_weighted(drift) / op.a, "h/a")
    fac = factorize(op, drift)
    report = verify_factorization(op, fac, standard_testers())
    if args.json:
        payload = {
            "family": spec.kind,
            "params": spec.params(),
            "direction": args.direction,
            "n": args.n,
            "drift": str(fac.drift),
            "operator": str(op),
            "f1": _weighted_json(fac.f1),
            "g2": _weighted_json(fac.g2),
            "h": _weighted_json(fac.h),
            "verified": report.ok,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"operator: {op}  [{op.form}]")
        print(f"drift t = {fac.drift.to_text(op.var)}")
        print(f"f1 = {fac.f1.to_text(op.var)}")
        print(f"g2 = {fac.g2.to_text(op.var)}")
        print(f"h  = {fac.h.to_text(op.var)}")
        print(f"verification: {report.summary()}")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_factorize(args)
    except (ParseError, OutOfClassError, ValueError, ZeroDivisionError, RecursionError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
