"""Certifier soundness and catalog construction invariants."""

import numpy as np
import pytest

from fracineq import (
    DomainError,
    IntegrandError,
    Interval,
    builtin_catalog,
    certify_s_concave,
    certify_s_convex,
    get_function,
    root_power,
    s_power,
    shifted_square,
)
from fracineq.funclib import ConvexityClass, TestFunction, certify_declared

UNIT = Interval(0.0, 1.0)
NO_PROBES = np.empty(0)


def grid_alone(fn, domain, s):
    """The grid's (convex, concave) verdicts at ``s`` alone: a
    channel_verdicts call with no probe triples."""
    from fracineq.funclib import channel_verdicts

    verdicts = channel_verdicts(fn, domain, (s,), NO_PROBES, NO_PROBES,
                                NO_PROBES)
    return verdicts[(s, False)], verdicts[(s, True)]


def second_derivative_fd(fn, t: float, h: float = 1e-4) -> float:
    """Central-difference second derivative."""
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


def test_linear_passes_convexity():
    result = certify_s_convex(lambda t: t, UNIT, 1.0)
    assert result.passed
    # a passed certification is truthy
    assert result


def test_sqrt_is_half_convex():
    # u^s lies in the s-convex class; brute-force grid confirmed pre-build
    assert certify_s_convex(lambda t: t ** 0.5, UNIT, 0.5).passed


def test_negative_square_fails_with_witness():
    res = certify_s_convex(lambda t: -t ** 2, UNIT, 1.0)
    assert not res.passed
    # a failed certification is falsy
    assert not res
    w = res.witness
    # the witness actually violates the inequality it reports
    mixed = -(w.lam * w.x + (1.0 - w.lam) * w.y) ** 2
    combo = w.lam * (-w.x ** 2) + (1.0 - w.lam) * (-w.y ** 2)
    assert mixed == pytest.approx(w.lhs)
    assert combo == pytest.approx(w.rhs)
    assert w.lhs > w.rhs


def test_concavity_knowns():
    assert certify_s_concave(lambda t: -t ** 2, UNIT, 1.0).passed
    assert not certify_s_concave(lambda t: t ** 2, UNIT, 1.0).passed
    assert certify_s_concave(lambda t: t ** 0.5, UNIT, 1.0).passed
    # a declared class is certified in its own direction; kind none has
    # nothing to certify
    root = TestFunction("root", np.sqrt, lambda t: -0.25 * t ** -1.5,
                        ConvexityClass("concave"), UNIT)
    assert certify_declared(root).passed
    with pytest.raises(DomainError, match="declares no convexity class"):
        certify_declared(root._replace(declared_class=ConvexityClass("none")))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
def test_power_function_passes_its_own_class(s):
    assert certify_s_convex(lambda t: t ** s, UNIT, s).passed


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_constants_are_s_convex_but_not_s_concave(s):
    # lam^s + (1-lam)^s >= 1 for s <= 1
    assert certify_s_convex(lambda t: 1.0 + 0.0 * t, UNIT, s).passed
    assert not certify_s_concave(lambda t: 1.0 + 0.0 * t, UNIT, s).passed


def test_definition_nesting_midpoint_convexity():
    # anything passing s = 1 on a grid also passes midpoint convexity there
    fns = [lambda t: t ** 2, lambda t: np.exp(t), lambda t: 3.0 * t + 1.0]
    xs = np.linspace(0.0, 1.0, 33)
    for fn in fns:
        assert certify_s_convex(fn, UNIT, 1.0).passed
        X, Y = np.meshgrid(xs, xs)
        assert np.all(fn((X + Y) / 2.0) <= (fn(X) + fn(Y)) / 2.0 + 1e-12)


def test_convexity_class_keeps_the_float_its_validator_returns():
    from fracineq.funclib import ConvexityClass

    cls = ConvexityClass("s_convex", "0.5")
    assert cls.s == 0.5 and type(cls.s) is float
    assert str(cls) == "s_convex(0.5)"
    assert type(ConvexityClass("s_concave", 1).s) is float
    for kind in ("s_convex", "s_concave"):
        with pytest.raises(DomainError, match=kind):
            ConvexityClass(kind)
        for bad in (0.0, 1.5, float("nan"), "2"):
            with pytest.raises(DomainError, match="s must lie in"):
                ConvexityClass(kind, bad)
    # the kinds without an exponent refuse one, naming the kind
    for kind in ("convex", "concave", "none"):
        assert str(ConvexityClass(kind)) == kind
        for s in (0.5, "0.5", 1.0, 7):
            with pytest.raises(DomainError, match=f"{kind} takes no s"):
                ConvexityClass(kind, s)


def test_certifier_precondition_errors():
    from fracineq.funclib import cert_grid

    with pytest.raises(DomainError):
        certify_s_convex(lambda t: t, Interval(-1.0, 1.0), 1.0)
    with pytest.raises(DomainError):
        certify_s_convex(lambda t: t, UNIT, 0.0)
    with pytest.raises(DomainError):
        certify_s_convex(lambda t: t, UNIT, 1.5)
    with pytest.raises(DomainError):
        cert_grid(lambda t: t, Interval(-1.0, 1.0))


def test_non_finite_grid_value_raises():
    with pytest.raises(IntegrandError):
        certify_s_convex(lambda t: 1.0 / t, UNIT, 1.0)


def test_a_complex_value_on_the_scalar_path_is_non_finite():
    # float(t) makes f scalar-only, and below 0.5 it returns a complex
    # number, which used to escape _eval_grid as a bare TypeError: it is
    # nan there, and the certifier reports it as non-finite
    from fracineq.funclib import _eval_grid

    def f(t):
        return (float(t) - 0.5) ** 0.5

    got = _eval_grid(f, np.linspace(0.0, 1.0, 5))
    assert np.isnan(got[:2]).all()
    assert got[2:].tolist() == [0.0, 0.5, 0.5 ** 0.5]
    with pytest.raises(IntegrandError, match="non-finite at grid node t=0.0"):
        certify_s_convex(f, UNIT, 1.0)


@pytest.mark.parametrize("fn, domain", [
    (lambda t: t ** 2, Interval(0.0, 2.0)),         # convex, not concave
    (lambda t: -t ** 2, UNIT),                      # concave, not convex
    (lambda t: t ** 0.5, UNIT),                     # s-concave only at some s
    (lambda t: 1.0 + 0.0 * t, UNIT),                # constant
    (lambda t: np.sin(6.0 * t), Interval(0.0, 3.0)),  # neither
])
def test_grid_verdicts_match_one_direction_at_a_time(fn, domain):
    for s in (0.25, 0.5, 1.0):
        assert grid_alone(fn, domain, s) == (
            certify_s_convex(fn, domain, s).passed,
            certify_s_concave(fn, domain, s).passed)


def test_scalar_only_callables_supported():
    def scalar_fn(t):
        if hasattr(t, "__len__"):
            raise TypeError("scalar only")
        return float(t) ** 2

    assert certify_s_convex(scalar_fn, UNIT, 1.0).passed


# ---------------------------------------------------------------------------
# catalog


def test_catalog_minimum_contents():
    names = {f.name for f in builtin_catalog()}
    assert {"square", "cube", "quartic", "s_power_0.25", "s_power_0.5",
            "s_power_0.75", "shifted_square_1"} <= names
    sq = get_function("square")
    assert sq.d2(0.3) == pytest.approx(2.0)
    assert sq.declared_class.kind == "convex"
    sp = get_function("s_power_0.5")
    assert sp.d2(0.49) == pytest.approx(0.7)
    assert sp.declared_class.kind == "s_convex"
    assert sp.declared_class.s == 0.5


def test_catalog_is_cached_and_immutable():
    assert builtin_catalog() is builtin_catalog()
    assert isinstance(builtin_catalog(), tuple)


def test_catalog_second_derivatives_match_finite_differences():
    # |d2 - central difference| <= 1e-5 (1 + |d2|) at 101 interior points
    for f in builtin_catalog():
        dom = f.natural_domain
        margin = 0.05 * dom.length
        for t in np.linspace(dom.a + margin, dom.b - margin, 101):
            t = float(t)
            fd = second_derivative_fd(f.fn, t)
            d2 = float(f.d2(t))
            assert abs(d2 - fd) <= 1e-5 * (1.0 + abs(d2)), (f.name, t)


def test_equality_witness_family():
    w = shifted_square(1.5)
    assert w.fn(1.5) == 0.0
    assert w.d2(2.0) == pytest.approx(2.0)
    assert w.natural_domain.a == 1.5


def test_s_power_second_derivative_is_pure_power():
    for s in (0.25, 0.5, 0.75):
        f = s_power(s)
        for t in (0.0, 0.3, 1.7):
            assert f.d2(t) == pytest.approx(t ** s)


def test_root_power_kept_out_of_builtin_catalog():
    names = {f.name for f in builtin_catalog()}
    assert not any(n.startswith("root_power") for n in names)
    rp = root_power(0.5)
    assert rp.fn(0.25) == pytest.approx(0.5)


def test_get_function_parameterised_names():
    assert get_function("s_power_0.4").declared_class.s == pytest.approx(0.4)
    assert get_function("root_power_0.25").fn(0.0625) == pytest.approx(0.5)
    assert get_function("shifted_square_2").fn(3.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        get_function("no_such_function")


# ---------------------------------------------------------------------------
# the grid certifier against a brute-force n^3 reference

N = 33


def test_grid_weights_are_mirror_exact_bit_for_bit():
    # the half is the grid only because 1 - lam[k] is lam[n-1-k] exactly
    from fracineq.funclib import CERT_GRID_N

    assert CERT_GRID_N == N
    lam = np.linspace(0.0, 1.0, CERT_GRID_N)
    assert (1.0 - lam).tobytes() == lam[::-1].tobytes()


def reference_grid(fn, domain):
    """fx and f_mix with fn evaluated at every float combination
    lam[k]*xs[i] + (1-lam[k])*xs[j] of the n^3 grid."""
    xs = np.linspace(domain.a, domain.b, N)
    lam = np.linspace(0.0, 1.0, N)
    L = lam[None, None, :]
    mix = L * xs[:, None, None] + (1.0 - L) * xs[None, :, None]
    return xs, lam, fn(xs), fn(mix)


def reference_verdict(fn, domain, s, concave, slack=1e-12):
    xs, lam, fx, f_mix = reference_grid(fn, domain)
    L = lam[None, None, :]
    combo = L ** s * fx[:, None, None] + (1.0 - L) ** s * fx[None, :, None]
    if concave:
        return not np.any(f_mix < combo - slack)
    return not np.any(f_mix > combo + slack)


NON_DYADIC = [Interval(0.1, 0.7), Interval(1.0, 2.1), Interval(0.0, 1e-9)]
CHANNEL_FUNCTIONS = [
    lambda t: t ** 2,
    lambda t: t ** 3,
    lambda t: t ** 2.5 / 8.75,
    lambda t: np.sqrt(t),
    lambda t: np.abs(6.0 * t) ** 1.25,
    lambda t: np.abs(np.sqrt(t)) ** 3,
    lambda t: np.sin(6.0 * t),
]


@pytest.mark.parametrize("domain", NON_DYADIC, ids=str)
def test_grid_verdicts_match_brute_force_on_non_dyadic_intervals(domain):
    for fn in CHANNEL_FUNCTIONS:
        for s in (0.25, 0.5, 0.75, 1.0):
            convex, concave = grid_alone(fn, domain, s)
            assert convex == reference_verdict(fn, domain, s, concave=False)
            assert concave == reference_verdict(fn, domain, s, concave=True)


def test_scalar_only_callable_is_called_once_per_distinct_point():
    from fracineq.funclib import cert_grid

    calls = []

    def scalar_fn(t):
        calls.append(t)
        if hasattr(t, "__len__"):
            raise TypeError("scalar only")
        return float(t) * float(t)

    grid = cert_grid(scalar_fn, UNIT)
    # one refused array call, then one call per distinct point
    assert len(calls) <= N + (N - 1) ** 2 + 2
    vector = cert_grid(lambda t: t * t, UNIT)
    assert np.array_equal(grid.fx, vector.fx)
    assert np.array_equal(grid.f_half, vector.f_half)


def test_nodes_are_the_grid_nodes_bit_for_bit():
    # fx is fn(xs), and the lam = 0 face of the full gather from the
    # grid's distinct points repeats it; the lam = 1 face is its mirror.
    # The grid keeps the faces lam[1] .. lam[n//2] of that gather
    from fracineq.funclib import _grid_values, cert_grid

    def fn(t):
        return t ** 3

    k = np.arange(N)
    m = k * k[:, None, None] + (N - 1 - k) * k[None, :, None]
    for domain in NON_DYADIC:
        grid = cert_grid(fn, domain)
        assert np.array_equal(grid.fx, grid.xs ** 3)
        whole = _grid_values(fn, domain)[1][m]
        assert np.array_equal(whole[:, :, 0],
                              np.broadcast_to(grid.fx[None, :], (N, N)))
        assert np.array_equal(whole[:, :, -1],
                              np.broadcast_to(grid.fx[:, None], (N, N)))
        assert np.array_equal(grid.f_half,
                              whole[:, :, 1:N // 2 + 1].transpose(2, 0, 1))


def test_repeated_verdicts_on_one_grid_match_the_certifiers():
    domain = Interval(0.0, 2.0)
    first = grid_alone(lambda t: t ** 3, domain, 0.5)
    again = grid_alone(lambda t: t ** 3, domain, 0.5)
    other = grid_alone(lambda t: t ** 3, domain, 0.25)
    assert again == first
    assert other == (certify_s_convex(lambda t: t ** 3, domain, 0.25).passed,
                     certify_s_concave(lambda t: t ** 3, domain, 0.25).passed)
    assert other == (True, False)


def test_a_fresh_grid_after_another_is_judged_as_the_certifiers_judge_it():
    from fracineq.funclib import cert_grid

    domain = Interval(0.0, 2.0)
    grid_alone(lambda t: t ** 3, domain, 0.5)
    fresh = cert_grid(lambda t: t ** 2.5, domain)
    verdicts = grid_alone(lambda t: t ** 2.5, domain, 0.5)
    # the half less its lam = 0 face is 16 x 33 x 33 doubles
    assert fresh.f_half.shape == (16, 33, 33)
    assert verdicts == (
        certify_s_convex(lambda t: t ** 2.5, domain, 0.5).passed,
        certify_s_concave(lambda t: t ** 2.5, domain, 0.5).passed)


def test_verdicts_from_two_threads_at_once_match_serial_ones():
    from concurrent.futures import ThreadPoolExecutor

    channels = [(fn, domain)
                for fn in CHANNEL_FUNCTIONS for domain in NON_DYADIC]
    # every grid judged at four s values, each (grid, s) twice: the two
    # threads judge the same grids at the same time
    jobs = [(*channel, s) for channel in channels
            for s in (0.25, 0.5, 0.75, 1.0)] * 2
    serial = [grid_alone(*job) for job in jobs]
    assert {True, False} <= {v for pair in serial for v in pair}
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda job: grid_alone(*job), jobs))
    assert threaded == serial


# ---------------------------------------------------------------------------
# the one violation rule: a value CERT_SLACK past its combination passes,
# one twice as far fails, in the grid verdicts and in the probes alike


@pytest.mark.parametrize("concave", [False, True])
def test_grid_verdicts_allow_exactly_the_slack(concave):
    from fracineq.funclib import CERT_SLACK, cert_grid

    # f = 0: every combination is 0 and both directions hold
    assert grid_alone(lambda t: 0.0 * t, UNIT, 0.5) == (True, True)
    sign = -1.0 if concave else 1.0
    # the grid's point m = k i + (n-1-k) j of f_half[k-1, i, j] = [3, 4, 5],
    # between the nodes, so that fx stays 0
    point = (4 * 4 + (N - 1 - 4) * 5) / (N - 1) ** 2
    for past, holds in ((CERT_SLACK, True), (2.0 * CERT_SLACK, False)):
        # f is 0 everywhere but at that point
        def fn(t, past=past):
            return np.where(t == point, sign * past, 0.0)

        grid = cert_grid(fn, UNIT)
        assert grid.f_half[3, 4, 5] == sign * past
        assert not grid.fx.any()
        for s in (0.5, 1.0):
            assert grid_alone(fn, UNIT, s)[concave] == holds
            # the other direction holds whatever the value's size
            assert grid_alone(fn, UNIT, s)[not concave]


def off_grid_probes():
    """Two probe triples whose points, on UNIT, lie between the grid's 1025
    points m/1024, so a function that is 0 on the grid passes it and only
    the probes decide."""
    x, y, lam = np.array([0.1, 0.3]), np.array([0.6, 0.4]), np.array(
        [0.5, 0.5])
    mix = lam * x + (1.0 - lam) * y
    on_grid = np.linspace(0.0, 1.0, 1025)
    assert not np.isin(np.concatenate([x, y, mix]), on_grid).any()
    return x, y, lam, mix


@pytest.mark.parametrize("concave", [False, True])
def test_probes_allow_exactly_the_slack(concave):
    from fracineq.funclib import CERT_SLACK, channel_verdicts

    x, y, lam, mix = off_grid_probes()
    sign = -1.0 if concave else 1.0
    for past, holds in ((CERT_SLACK, True), (2.0 * CERT_SLACK, False)):
        # f is 0 everywhere but at the mixes of both triples
        def fn(t, past=past):
            return np.where(np.isin(t, mix), sign * past, 0.0)

        verdicts = channel_verdicts(fn, UNIT, (0.5, 1.0), x, y, lam)
        for s in (0.5, 1.0):
            assert verdicts[(s, concave)] == holds, past
            # the other direction holds whatever the value's size
            assert verdicts[(s, not concave)]


def test_probe_reading_nan_fails_both_directions():
    from fracineq.funclib import channel_verdicts

    x, y, lam, mix = off_grid_probes()
    # nan at an end point as well as at the mix
    for at in (x[0], mix[0]):
        def fn(t, at=at):
            return np.where(t == at, np.nan, 0.0)

        assert channel_verdicts(fn, UNIT, (1.0,), x, y, lam) == {
            (1.0, False): False, (1.0, True): False}


# ---------------------------------------------------------------------------
# s-nesting: several s are judged from the largest down, and a direction is
# judged no further once a convex pass or a concave fail decides it

S_WALK = (0.25, 0.5, 0.75, 1.0)


def unit_probes(seed: int = 3, count: int = 64):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.0, 1.0, count), rng.uniform(0.0, 1.0, count),
            rng.uniform(0.0, 1.0, count))


def walk(fn, domain, s_values, x, y, lam):
    """channel_verdicts over ``s_values``, the number of s whose grid it
    compared (one grid combination each) and the number of (s, direction)
    it compared on the probes (one comparison of the 1-d probe values
    each); the verdicts are checked against one call per s, merged in
    order, key order included."""
    import fracineq.funclib as funclib_mod

    judged, probed = [], []
    real_combination = funclib_mod._grid_combination
    real_holds = funclib_mod._holds

    def counting_holds(values, combo, concave):
        if values.ndim == 1:
            probed.append(concave)
        return real_holds(values, combo, concave)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(funclib_mod, "_grid_combination",
                      lambda grid, weights: judged.append(1)
                      or real_combination(grid, weights))
        patch.setattr(funclib_mod, "_holds", counting_holds)
        verdicts = funclib_mod.channel_verdicts(fn, domain, s_values, x, y,
                                                lam)
    merged = {}
    for s in s_values:
        merged.update(funclib_mod.channel_verdicts(fn, domain, (s,), x, y,
                                                   lam))
    assert list(verdicts.items()) == list(merged.items())
    return verdicts, len(judged), len(probed)


# (grid combinations, probe comparisons) per walk: each (s, direction)
# still judged compares its probes first, and an s's grid combination is
# formed only where some direction's probes pass
@pytest.mark.parametrize("fn, judged, judged_repeated", [
    # convex at s = 1 and not concave, its concave probes failing: both
    # decided at once, the grid compared for the convex pass alone
    (lambda t: t ** 2, (1, 2), (1, 2)),
    # s-convex at every s, s-concave at s = 1 alone: s = 3/4 fails its
    # concave probes, and its grid is not combined
    (lambda t: 1.0 + 0.0 * t, (1, 3), (1, 3)),
    # concave, and s-convex, down to s = 1/2 alone
    (np.sqrt, (2, 5), (2, 4)),
    # s-convex at s = 1/4 alone, concave at s = 1 alone: every s is judged
    # on the probes, the grid where they pass
    (lambda t: t ** 0.25, (3, 6), (3, 5)),
], ids=["square", "constant", "sqrt", "fourth_root"])
def test_walk_stops_once_both_directions_are_decided(fn, judged,
                                                     judged_repeated):
    verdicts, *count = walk(fn, UNIT, S_WALK, *unit_probes())
    assert tuple(count) == judged
    # unsorted and repeated s give the same keys in their given order
    verdicts, *count = walk(fn, UNIT, (1.0, 0.25, 1.0, 0.5), *unit_probes())
    assert tuple(count) == judged_repeated
    assert list(verdicts) == [(1.0, False), (1.0, True), (0.25, False),
                              (0.25, True), (0.5, False), (0.5, True)]


def test_walk_judges_every_s_where_the_nesting_is_not_shown():
    import fracineq.funclib as funclib_mod

    x, y, lam = unit_probes()
    square = lambda t: t ** 2                               # noqa: E731
    # negative at the grid nodes below 1/2: every (s, direction) is
    # compared on the probes, the grid only at s = 1, where they pass
    assert walk(lambda t: t ** 2 - 0.25, UNIT, S_WALK, x, y, lam)[1:] == (
        1, 8)
    # NaN at a probe's end value: no verdict holds, and no grid is compared
    verdicts, *count = walk(lambda t: np.where(t == x[0], np.nan, t ** 2),
                            UNIT, S_WALK, x, y, lam)
    assert count == [0, 8] and not any(verdicts.values())
    # a grid weight above 1, so lam^s falls as s falls: the table is out of
    # order, where the same channel is otherwise decided at s = 1
    assert walk(square, UNIT, S_WALK, x, y, lam)[1:] == (1, 2)
    unordered = funclib_mod._LAM.copy()
    unordered[5] = 1.5
    # the grid's weight tables are cached per s order: clear them so the
    # patched weights are read, and again so later tests read the real ones
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(funclib_mod, "_LAM", unordered)
            funclib_mod._grid_tables.cache_clear()
            assert not funclib_mod._grid_tables(tuple(S_WALK[::-1]))[1]
            assert walk(square, UNIT, S_WALK, x, y, lam)[1:] == (4, 8)
    finally:
        funclib_mod._grid_tables.cache_clear()


def test_grid_tables_are_read_only_powers_of_the_weights():
    # one table of the grid's weights lam^s per s order, kept: bit for bit
    # the rows each s gave when computed in place, and read-only
    from fracineq.funclib import _LAM, _grid_tables

    for order in ((1.0,), (0.5,), S_WALK[::-1], (0.9, 0.6, 0.3, 0.1)):
        table, rises = _grid_tables(order)
        assert table.tobytes() == np.stack([_LAM ** s for s in order]
                                           ).tobytes()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[-1, 1] = 2.0
        assert rises
        assert _grid_tables(order)[0] is table
    # lam^s falls as s rises
    assert not _grid_tables(S_WALK)[1]


def test_the_walk_repeats_its_verdicts_on_one_grid(monkeypatch):
    import fracineq.funclib as funclib_mod

    x, y, lam = unit_probes()
    for fn in (lambda t: t ** 2, np.sqrt, lambda t: t ** 2 - 0.25):
        grid = funclib_mod.cert_grid(fn, UNIT)
        monkeypatch.setattr(funclib_mod, "cert_grid", lambda fn, domain: grid)
        first = funclib_mod.channel_verdicts(fn, UNIT, S_WALK, x, y, lam)
        again = funclib_mod.channel_verdicts(fn, UNIT, S_WALK, x, y, lam)
        assert again == first


# ---------------------------------------------------------------------------
# witnesses: the first violation of the whole n^3 grid, bit for bit


def gathered_f_mix(fn, domain):
    """f_mix gathered from fn at the (n-1)^2 + 1 distinct points by
    m = k i + (n-1-k) j over the whole n^3 grid."""
    step = N - 1
    xs = np.linspace(domain.a, domain.b, N)
    points = np.linspace(domain.a, domain.b, step * step + 1)
    points[::step] = xs
    k = np.arange(N)
    m = k * k[:, None, None] + (step - k) * k[None, :, None]
    return fn(points)[m]


def brute_force_witness(fn, domain, s, concave, slack=1e-12):
    """The first violating triple of the full n^3 grid in row-major
    (x, y, lam) order, from fn at the grid's distinct points, or None."""
    from fracineq.funclib import Witness

    xs = np.linspace(domain.a, domain.b, N)
    lam = np.linspace(0.0, 1.0, N)
    fx = fn(xs)
    f_mix = gathered_f_mix(fn, domain)
    lam_s = (lam ** s)[None, None, :]
    rest_s = ((1.0 - lam) ** s)[None, None, :]
    combo = lam_s * fx[:, None, None] + rest_s * fx[None, :, None]
    if concave:
        violation = f_mix < combo - slack
    else:
        violation = f_mix > combo + slack
    if not violation.any():
        return None
    i, j, k = np.unravel_index(violation.argmax(), violation.shape)
    return Witness(x=float(xs[i]), y=float(xs[j]), lam=float(lam[k]),
                   lhs=float(f_mix[i, j, k]), rhs=float(combo[i, j, k]))


def witness_bits(witness):
    return None if witness is None else [float.hex(v) for v in witness]


def assert_certifiers_match_brute_force(fn, domain, s):
    for certify, concave in ((certify_s_convex, False),
                             (certify_s_concave, True)):
        result = certify(fn, domain, s)
        reference = brute_force_witness(fn, domain, s, concave)
        assert result.passed == (reference is None)
        assert witness_bits(result.witness) == witness_bits(reference)
        assert result.checked == N ** 3


@pytest.mark.parametrize("domain", NON_DYADIC, ids=str)
def test_witnesses_equal_the_brute_force_first_violation(domain):
    from fracineq.funclib import cert_grid

    for fn in CHANNEL_FUNCTIONS:
        grid = cert_grid(fn, domain)
        # the grid keeps the half 1 <= k <= n//2 of the gathered n^3
        # values; the lam = 0 face it leaves out repeats fx
        f_mix = gathered_f_mix(fn, domain)
        assert np.array_equal(grid.f_half,
                              f_mix[:, :, 1:17].transpose(2, 0, 1))
        assert np.array_equal(f_mix[:, :, 0],
                              np.broadcast_to(grid.fx[None, :], (N, N)))
        for s in (0.25, 0.5, 1.0):
            assert_certifiers_match_brute_force(fn, domain, s)


# channels where the lam = 0 face is most fragile: values near 1e300, and
# values that are -0.0 or negative at the nodes
FACE_CHANNELS = [
    lambda t: 1e300 * t,
    lambda t: -1e300 * t,
    lambda t: -t ** 2,
    lambda t: -t,
]


@pytest.mark.parametrize("domain", [UNIT, *NON_DYADIC], ids=str)
def test_half_without_the_lam_zero_face_matches_the_brute_force_grid(domain):
    # the grid leaves out the lam = 0 face (and its mirror lam = 1): there
    # the value fx[j] and its combination 0^s fx[i] + 1^s fx[j] are equal,
    # since 0^s is 0 and 1^s is 1 exactly; the verdicts and the first
    # witness are those of the full n^3 grid all the same
    from fracineq.funclib import _LAM, cert_grid, channel_verdicts

    s_values = (0.25, 0.5, 1.0)
    for s in (*s_values, *np.random.default_rng(2).random(1000)):
        weights = _LAM ** float(s)
        assert weights[0] == 0.0 and weights[-1] == 1.0, s
    for fn in FACE_CHANNELS + CHANNEL_FUNCTIONS[:2]:
        grid = cert_grid(fn, domain)
        assert grid.f_half.shape == (N // 2, N, N)
        references = {}
        for s in s_values:
            assert_certifiers_match_brute_force(fn, domain, s)
            references[s] = tuple(
                brute_force_witness(fn, domain, s, concave) is None
                for concave in (False, True))
            assert grid_alone(fn, domain, s) == references[s], s
        # several s at once, with no probes: the grid's verdicts alone
        verdicts = channel_verdicts(fn, domain, s_values, NO_PROBES,
                                    NO_PROBES, NO_PROBES)
        assert verdicts == {(s, concave): references[s][concave]
                            for s in s_values for concave in (False, True)}


def test_witness_on_the_mirrored_half():
    # sin(6t) on [1, 2.1] first fails s-concavity at lam = 0.75 > 1/2: the
    # witness is the mirror of a triple of the half
    fn, domain = CHANNEL_FUNCTIONS[-1], Interval(1.0, 2.1)
    result = certify_s_concave(fn, domain, 0.5)
    assert result.witness.lam == 0.75
    assert witness_bits(result.witness) == witness_bits(
        brute_force_witness(fn, domain, 0.5, concave=True))
