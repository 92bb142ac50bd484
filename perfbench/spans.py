"""In-memory span tracing around ladderpoly's public functions and methods.

A ``Tracer`` wraps each traced callable so that every call records one span:
its name, start and end on ``time.perf_counter`` and the index of the span
that was open when it started.  Spans live in flat arrays (24 bytes each) and
are written out once, after the traced section, by ``dump``.

``install`` patches the layers the benchmark reports on.  Modules import
names directly (``from .algebra import poly_gcd``), so a function is replaced
in every ladderpoly module namespace, and in module-level dicts such as
``identities._CHECKS``, not only where it is defined.  ``uninstall`` puts the
originals back, so the correctness checks after the timed section run
untraced.

A span's self time is its duration minus the part of it covered by its child
spans (``self_times``).  The self times of all spans partition the time
inside the outermost spans, so they sum to the traced section less the
benchmark's own glue between calls.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


def self_times(starts, ends, parents) -> list[float]:
    """Self time of each span: duration minus the union of its children's intervals.

    Child intervals are clipped to the parent; overlapping children are
    counted once.  ``parents[i]`` is the index of span i's parent, or -1.
    """
    count = len(starts)
    covered = [0.0] * count
    cursor = list(starts)
    for i in sorted(range(count), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], cursor[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn, on_result=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- patching -----------------------------------------------------------

    def patch_method(self, cls, attrs: tuple[str, ...], name: str, on_result=None) -> None:
        """Wrap each of the named method slots of ``cls``, all under one span name."""
        for attr in attrs:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original, False))
            setattr(cls, attr, self.wrap(name, original, on_result))

    def patch_function(self, modules, fn, name: str, on_result=None):
        """Replace every binding of ``fn`` in the given modules' namespaces."""
        wrapper = self.wrap(name, fn, on_result)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._undo.append((namespace, key, fn, True))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for inner, item in list(value.items()):
                        if item is fn:
                            self._undo.append((value, inner, fn, True))
                            value[inner] = wrapper
        return wrapper

    def uninstall(self) -> None:
        for target, key, original, is_mapping in reversed(self._undo):
            if is_mapping:
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, self seconds, inclusive seconds of outermost calls)."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name_ids):
            entry = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += selfs[i]
            p = self.parents[i]
            if p < 0 or self.name_ids[p] != nid:
                entry[2] += self.ends[i] - self.starts[i]
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then the four arrays in order."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.starts), "byteorder": sys.byteorder}
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def load_spans(path) -> tuple[list[str], array, array, array, array]:
    """Read a ``Tracer.dump`` file back: names, name ids, parents, starts, ends."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(handle, header["count"])
            columns.append(column)
    return (header["names"], *columns)


# ---------------------------------------------------------------------------
# The traced layers of ladderpoly.
# ---------------------------------------------------------------------------

#: identities._CHECKS ids the gen-verify workload reaches (the other three
#: run only under ``verify --suite all``, which the benchmark does not repeat).
CHECK_IDS = ("eq31", "remark3term", "remark3term-legendre", "eq34", "eq33-35", "assoc-relations")


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap the benchmark's layers; returns the lru-cached originals by span name."""
    from ladderpoly import algebra, cli, families, identities, ladder, parsing, verify, weighted
    import ladderpoly

    modules = (ladderpoly, algebra, weighted, ladder, families, identities, verify, parsing, cli)

    def gcd_outcome(g) -> None:
        tracer.count("algebra.poly_gcd.useful", g.degree > 0)

    def mul_outcome(p) -> None:
        if p is not NotImplemented:
            tracer.maximum("algebra.coeff_bits.max", _coeff_bits(p))

    tracer.patch_method(algebra.Polynomial, ("__divmod__",), "algebra.Polynomial.divmod")
    tracer.patch_method(algebra.Polynomial, ("__mul__", "__rmul__"), "algebra.Polynomial.mul", mul_outcome)
    tracer.patch_method(algebra.RationalFunction, ("__post_init__",), "algebra.RationalFunction.new")
    tracer.patch_function(modules, algebra.poly_gcd, "algebra.poly_gcd", gcd_outcome)
    tracer.patch_function(modules, algebra.partial_fractions, "algebra.partial_fractions")
    tracer.patch_function(modules, algebra.rational_roots, "algebra.rational_roots")

    wexpr = weighted.WeightedExpression
    tracer.patch_method(wexpr, ("diff",), "weighted.WeightedExpression.diff")
    tracer.patch_method(wexpr, ("__mul__", "__rmul__", "__truediv__"), "weighted.WeightedExpression.mul")
    tracer.patch_method(wexpr, ("__post_init__",), "weighted.WeightedExpression.new")

    tracer.patch_method(ladder.LadderOperator, ("apply",), "ladder.LadderOperator.apply")
    for fn in (ladder.factorize, ladder.verify_factorization, ladder.apply_chain):
        tracer.patch_function(modules, fn, f"ladder.{fn.__name__}")

    cached = {}
    for fn in (families.generate_ladder, families.oracle_recurrence):
        tracer.patch_function(modules, fn, f"families.{fn.__name__}")
        cached[f"families.{fn.__name__}"] = fn
    for fn in (families.rodrigues_standard, families.rodrigues_chain, families.generate_assoc_legendre):
        tracer.patch_function(modules, fn, f"families.{fn.__name__}")

    for check_id in CHECK_IDS:
        tracer.patch_function(modules, identities._CHECKS[check_id], f"identities.check.{check_id}")
    for fn in (identities.remainder_term, identities.remainder_expansion, identities.remainder_structure_report):
        tracer.patch_function(modules, fn, f"identities.{fn.__name__}")

    tracer.patch_function(modules, parsing.parse_expression, "parsing.parse_expression")
    tracer.patch_function(modules, cli.main, "cli.main")
    return cached
