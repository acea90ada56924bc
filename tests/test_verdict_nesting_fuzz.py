"""Property test of the certifier's walk over s: for a nonnegative channel
and any set of s, channel_verdicts gives the verdicts of one call per s,
merged in the order of the s given."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from fracineq import Interval  # noqa: E402
from fracineq.funclib import channel_verdicts  # noqa: E402

S = st.one_of(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
              st.floats(min_value=0.01, max_value=1.0))


@st.composite
def channels(draw):
    """c0 + c1 t^k + c2 |sin(w t)| with c0, c1, c2 >= 0 on [a, a + width]."""
    c0, c1, c2 = (draw(st.floats(0.0, 10.0)) for _ in range(3))
    k = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    w = draw(st.floats(0.5, 20.0))
    a = draw(st.floats(0.0, 3.0))
    width = draw(st.sampled_from([1e-9, 1e-3, 1.0, 3.0]))
    return ((lambda t: c0 + c1 * t ** k + c2 * np.abs(np.sin(w * t))),
            Interval(a, a + width))


@settings(max_examples=150, deadline=None)
@given(channels(), st.lists(S, min_size=2, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_nested_walk_equals_one_call_per_s(channel, s_values, seed):
    fn, domain = channel
    rng = np.random.default_rng(seed)
    x = rng.uniform(domain.a, domain.b, 64)
    y = rng.uniform(domain.a, domain.b, 64)
    lam = rng.uniform(0.0, 1.0, 64)
    verdicts = channel_verdicts(fn, domain, s_values, x, y, lam)
    merged = {}
    for s in s_values:
        merged.update(channel_verdicts(fn, domain, (s,), x, y, lam))
    assert list(verdicts.items()) == list(merged.items())
