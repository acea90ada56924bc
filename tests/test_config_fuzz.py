"""Property test of the sweep config parser: any text either parses or is
rejected with a ConfigError naming a field, never another exception."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from fracineq import ConfigError, parse_config_text  # noqa: E402
from fracineq.sweep import SweepConfig  # noqa: E402

GOOD = {
    "functions": "square linear",
    "intervals": "0,1",
    "alphas": "0.5 1",
    "s_values": "1",
    "p_values": "2",
    "q_values": "1",
    "slack": "1e-8",
    "quad_tol": "1e-10",
    "format": "csv",
    "seed": "7",
}

# tokens at the edges of the fields' domains, mixed with arbitrary text
EDGE_TOKENS = [
    "0", "1", "-1", "2", "0.5", "1e-15", "1e-300", "1e300", "1e400", "nan",
    "inf", "-inf", "170", "171", "0x10", "1_0", "0,1", "1,0", "-1,1",
    "0,1e-9", "0,100", "0,0.01", "nan,1", "1,2,3", ",", "square",
    "s_power_0.5", "s_power_2", "s_power_1.2.3", "root_power_0",
    "root_power_0.5", "shifted_square_1", "shifted_square_1e9", "csv",
    "json", "xml", "=", "#",
]
token = st.one_of(st.sampled_from(EDGE_TOKENS), st.text(max_size=12))
value = st.lists(token, max_size=3).map(" ".join)


@st.composite
def config_text(draw) -> str:
    lines = []
    for key, good in GOOD.items():
        action = draw(st.sampled_from(["keep", "replace", "drop"]))
        if action != "drop":
            lines.append(f"{key} = {good if action == 'keep' else draw(value)}")
    # a stray line: arbitrary text, or a key (known, unknown or empty)
    # with a value
    key = st.one_of(st.sampled_from([*GOOD, ""]), token)
    lines.append(draw(st.one_of(
        st.text(max_size=20),
        st.tuples(key, value).map(lambda kv: f"{kv[0]} = {kv[1]}"))))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(config_text())
def test_parser_returns_config_or_raises_config_error(text):
    try:
        config = parse_config_text(text)
    except ConfigError as exc:
        assert exc.field
    else:
        assert isinstance(config, SweepConfig)
