"""The --format json writer against its oracle, json.dumps(obj, indent=2)."""

import contextlib
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from perfbench import workloads
from rncsplit import cli
from tests.helpers import json_indent2

# a 5000-digit int is past Python's default limit on int-to-text conversion
BIG = 10**4999 + 7


def _outcome(write, obj):
    """The text, or the type of the exception raised."""
    try:
        return write(obj)
    except Exception as exc:  # compared by type with the oracle's
        return type(exc)


@contextlib.contextmanager
def _no_int_text_limit():
    """Python's limit on the digits of an int printed as text lifted, where
    the interpreter has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t é€\U0001f600\ud800'), st.characters()))
_LEAVES = st.one_of(
    _TEXT,
    st.integers(),
    st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**400, -(10**400)]),
    # drawn by digit count: hypothesis prints its strategies, and the
    # default limit refuses to print such an int
    st.builds(lambda k, sign: sign * (10**k + 7), st.integers(4999, 5001), st.sampled_from([1, -1])),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=25,
)


@given(_VALUES)
@example({})
@example([])
@example({"": [], "a": {}, "b": [{}, [[]], {"c": []}]})
@example([True, False, None, 1.5, -0.0, float("nan"), float("-inf"), 1e300])
@example({"é\"\\\n": ["\ud800\U0001f600", -12, -BIG]})
@example((1, "a", (2, [3])))
@settings(max_examples=150, deadline=None)
def test_writer_matches_json_dumps_indent_2(obj):
    # the same text, or the same exception: a 5000-digit int raises
    # ValueError in both under the default int-to-text limit, and prints
    # the same digits in both once the limit is lifted
    assert _outcome(cli._json, obj) == _outcome(json_indent2, obj)
    with _no_int_text_limit():
        assert _outcome(cli._json, obj) == _outcome(json_indent2, obj)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-text limit before 3.10.7")
def test_writer_prints_5000_digit_ints_where_python_does():
    obj = {"big": [BIG, -BIG], "n": BIG}
    with pytest.raises(ValueError):
        cli._json(obj)
    with _no_int_text_limit():
        assert cli._json(obj) == json_indent2(obj)
        assert str(-BIG) in cli._json(obj)


@pytest.mark.parametrize(
    "key",
    [1, -2, 1.5, True, None, (1, 2), b"k", BIG],
    ids=["int", "negative", "float", "bool", "None", "tuple", "bytes", "5000 digits"],
)
def test_writer_writes_a_non_str_key_as_json_dumps_or_refuses(key):
    # json.dumps turns an int, float, bool or None key into a str; the
    # writer refuses every non-str key with TypeError, never different text
    obj = {"a": 1, key: [2]}
    got = _outcome(cli._json, obj)
    assert got is TypeError or got == _outcome(json_indent2, obj)


def _emitted(monkeypatch, capsys, argv):
    """Run argv with --format json; return the one payload _emit was given
    and what main printed."""
    payloads = []
    emit = cli._emit

    def spy(args, payload, text):
        payloads.append(payload)
        emit(args, payload, text)

    monkeypatch.setattr(cli, "_emit", spy)
    code = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0 and len(payloads) == 1, argv
    return payloads[0], out


_COMMANDS = [
    *(["compute", "--d", str(d), "--e", str(e), "--n", str(n)] for d, e, n in workloads.CATALOG_Q),
    ["compute", "--d", "3", "--e", "3", "--n", "5", "--field", "prime:2"],
    ["compute", "--poly", workloads.QUINTIC],
    ["verify", "--theorem", "quadrics", "--max-n", "6"],
    ["verify", "--theorem", "cubics", "--max-n", "6", "--field", "prime:3"],
    ["verify", "--theorem", "quartics", "--max-n", "6", "--field", "rational"],
    ["verify", "--theorem", "general", "--d", "5", "--max-n", "9", "--field", "prime:2"],
    ["extend", "--d", "3", "--e", "3", "--to-n", "5"],
    ["extend", "--d", "4", "--e", "5", "--to-n", "9", "--field", "prime:32003"],
    ["extend", "--d", "4", "--e", "5", "--to-n", "9", "--field", "rational"],
    ["extend", "--d", "4", "--e", "5", "--to-n", "8", "--field", "prime:3"],
    ["extend", "--d", "3", "--e", "5", "--to-n", "9", "--field", "rational"],
    ["predict", "--d", "4", "--e", "6", "--n", "9"],
    ["predict", "--d", "5", "--e", "2", "--n", "7"],
    ["glue", "[0,1,1,2]", "[1,1,1,1]"],
    ["interp", "O(4) + O(5)^4 + O(6)", "--d", "2", "--e", "5", "--n", "7"],
    ["interp", "[3]"],
    ["dominates", "[2,2,2]", "[1,2,3]"],
    ["dominates", "[1,2,3]", "[2,2,2]"],
]


@pytest.mark.parametrize("argv", _COMMANDS, ids=" ".join)
def test_every_json_report_is_json_dumps_indent_2(monkeypatch, capsys, argv):
    payload, out = _emitted(monkeypatch, capsys, argv)
    assert out == json_indent2(payload) + "\n"
