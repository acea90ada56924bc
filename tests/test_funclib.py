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

UNIT = Interval(0.0, 1.0)


def second_derivative_fd(fn, t: float, h: float = 1e-4) -> float:
    """Central-difference second derivative."""
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


def test_linear_passes_convexity():
    assert certify_s_convex(lambda t: t, UNIT, 1.0).passed


def test_sqrt_is_half_convex():
    # u^s lies in the s-convex class; brute-force grid confirmed pre-build
    assert certify_s_convex(lambda t: t ** 0.5, UNIT, 0.5).passed


def test_negative_square_fails_with_witness():
    res = certify_s_convex(lambda t: -t ** 2, UNIT, 1.0)
    assert not res.passed
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


@pytest.mark.parametrize("fn, domain", [
    (lambda t: t ** 2, Interval(0.0, 2.0)),         # convex, not concave
    (lambda t: -t ** 2, UNIT),                      # concave, not convex
    (lambda t: t ** 0.5, UNIT),                     # s-concave only at some s
    (lambda t: 1.0 + 0.0 * t, UNIT),                # constant
    (lambda t: np.sin(6.0 * t), Interval(0.0, 3.0)),  # neither
])
def test_grid_verdicts_match_one_direction_at_a_time(fn, domain):
    from fracineq.funclib import cert_grid, grid_verdicts

    grid = cert_grid(fn, domain)
    for s in (0.25, 0.5, 1.0):
        assert grid_verdicts(grid, s) == (
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
    from fracineq.funclib import cert_grid, grid_verdicts

    for fn in CHANNEL_FUNCTIONS:
        grid = cert_grid(fn, domain)
        for s in (0.25, 0.5, 0.75, 1.0):
            convex, concave = grid_verdicts(grid, s)
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
    # fx is fn(xs), and the lam = 0 face f_half[0] repeats it; the lam = 1
    # face is its mirror
    from fracineq.funclib import cert_grid

    for domain in NON_DYADIC:
        grid = cert_grid(lambda t: t ** 3, domain)
        assert np.array_equal(grid.fx, grid.xs ** 3)
        assert np.array_equal(grid.f_half[0],
                              np.broadcast_to(grid.fx[None, :], (N, N)))


def test_repeated_verdicts_allocate_no_grid_size_array():
    import tracemalloc

    from fracineq.funclib import cert_grid, grid_verdicts

    domain = Interval(0.0, 2.0)
    grid = cert_grid(lambda t: t ** 3, domain)
    first = grid_verdicts(grid, 0.5)
    tracemalloc.start()
    try:
        again = grid_verdicts(grid, 0.5)
        other = grid_verdicts(grid, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.f_half.nbytes
    assert again == first
    assert other == (certify_s_convex(lambda t: t ** 3, domain, 0.25).passed,
                     certify_s_concave(lambda t: t ** 3, domain, 0.25).passed)
    assert other == (True, False)


def test_fresh_grid_of_the_same_size_allocates_no_work_arrays():
    import tracemalloc

    from fracineq.funclib import cert_grid, grid_verdicts

    domain = Interval(0.0, 2.0)
    grid_verdicts(cert_grid(lambda t: t ** 3, domain), 0.5)
    fresh = cert_grid(lambda t: t ** 2.5, domain)
    tracemalloc.start()
    try:
        verdicts = grid_verdicts(fresh, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the half is 17 x 33 x 33 doubles; each float work array is as large
    assert fresh.f_half.shape == (17, 33, 33)
    assert peak < fresh.f_half.nbytes
    assert verdicts == (
        certify_s_convex(lambda t: t ** 2.5, domain, 0.5).passed,
        certify_s_concave(lambda t: t ** 2.5, domain, 0.5).passed)


def test_verdicts_from_two_threads_at_once_match_serial_ones():
    from concurrent.futures import ThreadPoolExecutor

    from fracineq.funclib import cert_grid, grid_verdicts

    grids = [cert_grid(fn, domain)
             for fn in CHANNEL_FUNCTIONS for domain in NON_DYADIC]
    # every grid judged at four s values, each (grid, s) twice: the two
    # threads judge the same grids at the same time
    jobs = [(grid, s) for grid in grids for s in (0.25, 0.5, 0.75, 1.0)] * 2
    serial = [grid_verdicts(grid, s) for grid, s in jobs]
    assert {True, False} <= {v for pair in serial for v in pair}
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda job: grid_verdicts(*job), jobs))
    assert threaded == serial


# ---------------------------------------------------------------------------
# the one violation rule: a value CERT_SLACK past its combination passes,
# one twice as far fails, in the grid verdicts and in the probes alike


@pytest.mark.parametrize("concave", [False, True])
def test_grid_verdicts_allow_exactly_the_slack(concave):
    from fracineq.funclib import CERT_SLACK, CertGrid, cert_grid, grid_verdicts

    # f = 0: every combination is 0 and both directions hold
    zero = cert_grid(lambda t: 0.0 * t, UNIT)
    assert grid_verdicts(zero, 0.5) == (True, True)
    sign = -1.0 if concave else 1.0
    for past, holds in ((CERT_SLACK, True), (2.0 * CERT_SLACK, False)):
        f_half = zero.f_half.copy()
        f_half[3, 4, 5] = sign * past
        grid = CertGrid(zero.xs, zero.lam, zero.fx, f_half)
        for s in (0.5, 1.0):
            assert grid_verdicts(grid, s)[concave] == holds
            # the other direction holds whatever the value's size
            assert grid_verdicts(grid, s)[not concave]


@pytest.mark.parametrize("concave", [False, True])
def test_probes_allow_exactly_the_slack(concave):
    from fracineq.funclib import CERT_SLACK, _probe_batch, _probe_verdicts

    x, y, lam = np.array([0.0, 0.25]), np.array([1.0, 0.75]), np.array(
        [0.5, 0.5])
    sign = -1.0 if concave else 1.0
    for past, holds in ((CERT_SLACK, True), (2.0 * CERT_SLACK, False)):
        # f is 0 everywhere but at the mix 0.5 of both triples
        def fn(t, past=past):
            return np.where(t == 0.5, sign * past, 0.0)

        batch = _probe_batch(fn, x, y, lam)
        for s in (0.5, 1.0):
            assert _probe_verdicts(batch, s)[concave] == holds, past
            # the other direction holds whatever the value's size
            assert _probe_verdicts(batch, s)[not concave]


def test_probe_reading_nan_fails_both_directions():
    from fracineq.funclib import _probe_batch, _probe_verdicts

    x, y, lam = np.array([0.0]), np.array([1.0]), np.array([0.5])
    # nan at an end point as well as at the mix
    for at in (0.0, 0.5):
        def fn(t, at=at):
            return np.where(t == at, np.nan, 0.0)

        assert _probe_verdicts(_probe_batch(fn, x, y, lam), 1.0) == (
            False, False)


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
        # the grid keeps the half k <= n//2 of the gathered n^3 values
        f_mix = gathered_f_mix(fn, domain)
        assert np.array_equal(grid.f_half, f_mix[:, :, :17].transpose(2, 0, 1))
        for s in (0.25, 0.5, 1.0):
            assert_certifiers_match_brute_force(fn, domain, s)


def test_witness_on_the_mirrored_half():
    # sin(6t) on [1, 2.1] first fails s-concavity at lam = 0.75 > 1/2: the
    # witness is the mirror of a triple of the half
    fn, domain = CHANNEL_FUNCTIONS[-1], Interval(1.0, 2.1)
    result = certify_s_concave(fn, domain, 0.5)
    assert result.witness.lam == 0.75
    assert witness_bits(result.witness) == witness_bits(
        brute_force_witness(fn, domain, 0.5, concave=True))
