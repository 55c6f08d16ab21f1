"""The CLI's JSON writer is `json.dumps(value, indent=2)`, byte for byte."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from montmort.cli import _json_text

GOLDEN_DIR = Path(__file__).resolve().parent / "golden_cli"

# Non-ASCII, quotes, backslashes, control characters and lone surrogates,
# mixed with any code point at all.
_special = st.sampled_from("\"\\/\x00\x08\t\n\x1f\x7f\x80\u00e9\u20ac\u2028\ud800\udfff\U0001f600")
strings = st.text(st.one_of(_special, st.characters(exclude_categories=())))
leaves = st.one_of(
    strings,
    st.integers(),
    st.integers(min_value=2**64) | st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
values = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(strings, children, max_size=4)
    ),
    max_leaves=20,
)


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.name)
def test_golden_json_is_rewritten_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert _json_text(json.loads(text)) + "\n" == text


@given(values)
@example([])
@example({})
@example({"": [[], {}, [{}], {"a": []}]})
@example([[[[]]], {"\ud800": {"x": {}}}])
@example([True, False, None, 0, -1, 2**64, -(2**64) - 1, 10**40, 0.1, -0.0, 1e300])
@example({"nan": math.nan, "inf": [math.inf, -math.inf], "big": 2**64 + 1})
def test_writer_equals_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)
