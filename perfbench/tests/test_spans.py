import types

import pytest

import spans
from spans import Tracer, load_spans, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 5] and [3, 7] overlap on [3, 5]; [8, 12] sticks out of the parent
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_self_times_partition_the_root_span():
    starts = [0.0, 0.5, 0.75, 2.0, 2.5, 6.0]
    ends = [8.0, 1.5, 1.0, 5.0, 3.0, 7.5]
    parents = [-1, 0, 1, 0, 3, 0]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(8.0)


def test_tracer_records_nesting_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    with tracer.span("bench"):
        inner()
    summary = tracer.summary()
    assert summary["inner"][0] == 4
    assert summary["outer"][0] == 1
    assert list(tracer.parents) == [-1, 0, 0, 0, -1, 4]
    calls, self_s, inclusive = summary["outer"]
    assert 0 <= self_s <= inclusive
    total_self = sum(v[1] for v in summary.values())
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    assert total_self == pytest.approx(sum(tracer.ends[i] - tracer.starts[i] for i in roots))


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(KeyError):
        traced()
    assert tracer.ends[0] >= tracer.starts[0] > 0
    assert not tracer._stack


def test_patch_function_replaces_every_binding_and_uninstall_restores():
    def target():
        return 7

    home = types.ModuleType("home")
    home.target = target
    home.TABLE = {"t": target, "other": len}
    user = types.ModuleType("user")
    user.alias = target
    tracer = Tracer()
    tracer.patch_function((home, user), target, "home.target")
    assert home.target is not target and user.alias is not target
    assert home.TABLE["t"] is not target and home.TABLE["other"] is len
    assert user.alias() == 7 and home.TABLE["t"]() == 7
    assert tracer.summary()["home.target"][0] == 2
    tracer.uninstall()
    assert home.target is target and user.alias is target and home.TABLE["t"] is target


def test_patch_method_wraps_each_slot_separately():
    class Num:
        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            return Num(self.v * other.v)

        __rmul__ = __mul__

        def __truediv__(self, other):
            return Num(self.v / other.v)

    tracer = Tracer()
    tracer.patch_method(Num, ("__mul__", "__rmul__", "__truediv__"), "num.mul")
    assert (Num(6) * Num(3)).v == 18
    assert (Num(6) / Num(3)).v == 2
    assert tracer.summary()["num.mul"][0] == 2
    tracer.uninstall()
    assert "traced" not in Num.__mul__.__qualname__


def test_dump_round_trips(tmp_path):
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    tracer.wrap("root", lambda: leaf())()
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    names, name_ids, parents, starts, ends = load_spans(path)
    assert [names[i] for i in name_ids] == ["root", "leaf"]
    assert list(parents) == [-1, 0]
    assert list(starts) == list(tracer.starts) and list(ends) == list(tracer.ends)


def test_install_traces_the_layers_and_uninstall_restores_them():
    from ladderpoly import algebra, cli, families, verify

    originals = (algebra.Polynomial.__divmod__, families.generate_ladder, verify.check_eq31, cli.main)
    tracer = Tracer()
    cached = spans.install(tracer)
    try:
        assert verify.check_eq31 is not originals[2]
        assert families.generate_ladder is not originals[1]
        verify.run_suite("eq31", 3)
        cached["families.generate_ladder"].cache_clear()
        assert families.generate_ladder(families.FamilySpec("legendre", 3)) == families.oracle_recurrence(
            families.FamilySpec("legendre", 3)
        )
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["identities.check.eq31"][0] == 1
    assert summary["families.generate_ladder"][0] == 4  # n = 3, 2, 1, 0
    assert summary["algebra.Polynomial.mul"][0] > 0
    assert set(cached) == {"families.generate_ladder", "families.oracle_recurrence"}
    assert (algebra.Polynomial.__divmod__, families.generate_ladder, verify.check_eq31, cli.main) == originals
