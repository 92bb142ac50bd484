"""The parser against the reference in ``tests/helpers.py``, which holds every value,
constants included, as a ``RationalFunction``: over expressions drawn from a small
grammar, both give equal values or the same ``ParseError`` text and position.

Constants run to about 4,100 bits, past the literal limit of 4,096, and powers to
600, past the degree limit of 512, so each budget is drawn on both sides; the
leaves 0 and x - x draw division by zero.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ladderpoly.parsing import ParseError, parse_expression  # noqa: E402

from helpers import reference_parse  # noqa: E402

#: A constant of 1 to 4,100 bits, each size about as likely.
constants = st.integers(1, 4100).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1))
leaves = st.sampled_from(["x", "r", "0", "1", "2", "x - x", "x + 1"]) | st.integers(0, 99).map(str) | constants.map(str)


def combined(children):
    operators = st.sampled_from(["+", "-", "*", "/"])
    return st.one_of(
        st.builds("({}) {} ({})".format, children, operators, children),
        st.builds("{}{}{}".format, children, operators, children),
        st.builds("({})^{}".format, children, st.integers(0, 9) | st.integers(0, 600)),
        st.builds("-{}".format, children),
    )


expressions = st.recursive(leaves, combined, max_leaves=6)


def outcome(parse, source):
    try:
        value = parse(source)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "value", type(value), value


@settings(max_examples=150, deadline=None)
@given(expressions)
@example("(2^512)^4 * (2^512)^4")
@example("1/(x - x)")
@example("(x + 1)^600")
@example("(x)^300 / (x + 1)^300")
@example(f"({2**4095}) + ({2**4095})")
@example(f"0 * {2**4096 - 1}")  # zero is sized at 1 bit
@example(f"(x - {2**4000}) * {2**100}")
def test_parse_matches_the_reference(source):
    assert outcome(parse_expression, source) == outcome(reference_parse, source)
