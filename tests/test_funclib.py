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
        cert_grid(lambda t: t, UNIT, 2)


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
    from fracineq.funclib import cert_grid, grid_verdict, grid_verdicts

    grid = cert_grid(fn, domain)
    for s in (0.25, 0.5, 1.0):
        # passed flags and witnesses alike
        assert grid_verdicts(grid, s) == (grid_verdict(grid, s),
                                          grid_verdict(grid, s, concave=True))


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


def reference_grid(fn, domain, grid_n):
    """fx and f_mix with fn evaluated at every float combination
    lam[k]*xs[i] + (1-lam[k])*xs[j] of the n^3 grid."""
    xs = np.linspace(domain.a, domain.b, grid_n)
    lam = np.linspace(0.0, 1.0, grid_n)
    L = lam[None, None, :]
    mix = L * xs[:, None, None] + (1.0 - L) * xs[None, :, None]
    return xs, lam, fn(xs), fn(mix)


def reference_verdict(fn, domain, s, grid_n, concave, slack=1e-12):
    xs, lam, fx, f_mix = reference_grid(fn, domain, grid_n)
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


@pytest.mark.parametrize("grid_n", [3, 10, 33])
@pytest.mark.parametrize("domain", NON_DYADIC, ids=str)
def test_grid_verdicts_match_brute_force_on_non_dyadic_intervals(grid_n,
                                                                 domain):
    from fracineq.funclib import cert_grid, grid_verdicts

    for fn in CHANNEL_FUNCTIONS:
        grid = cert_grid(fn, domain, grid_n)
        for s in (0.25, 0.5, 0.75, 1.0):
            convex, concave = grid_verdicts(grid, s)
            assert convex.passed == reference_verdict(fn, domain, s, grid_n,
                                                      concave=False)
            assert concave.passed == reference_verdict(fn, domain, s, grid_n,
                                                       concave=True)
            assert convex.checked == concave.checked == grid_n ** 3


@pytest.mark.parametrize("grid_n", [3, 10, 33])
def test_scalar_only_callable_is_called_once_per_distinct_point(grid_n):
    from fracineq.funclib import cert_grid

    calls = []

    def scalar_fn(t):
        calls.append(t)
        if hasattr(t, "__len__"):
            raise TypeError("scalar only")
        return float(t) * float(t)

    grid = cert_grid(scalar_fn, UNIT, grid_n)
    # one refused array call, then one call per distinct point
    assert len(calls) <= grid_n + (grid_n - 1) ** 2 + 2
    vector = cert_grid(lambda t: t * t, UNIT, grid_n)
    assert np.array_equal(grid.fx, vector.fx)
    assert np.array_equal(grid.f_mix, vector.f_mix)


def test_nodes_are_the_grid_nodes_bit_for_bit():
    # fx is fn(xs), and the lam = 0 and lam = 1 faces of f_mix repeat it
    from fracineq.funclib import cert_grid

    for domain in NON_DYADIC:
        grid = cert_grid(lambda t: t ** 3, domain)
        assert np.array_equal(grid.fx, grid.xs ** 3)
        assert np.array_equal(grid.f_mix[:, :, -1],
                              np.broadcast_to(grid.fx[:, None], (33, 33)))
        assert np.array_equal(grid.f_mix[:, :, 0],
                              np.broadcast_to(grid.fx[None, :], (33, 33)))


def test_repeated_verdicts_allocate_no_grid_size_array():
    import tracemalloc

    from fracineq.funclib import cert_grid, grid_verdict, grid_verdicts

    grid = cert_grid(lambda t: t ** 3, Interval(0.0, 2.0))
    first = grid_verdicts(grid, 0.5)
    tracemalloc.start()
    try:
        again = grid_verdicts(grid, 0.5)
        other = grid_verdicts(grid, 0.25)
        one = grid_verdict(grid, 0.75, concave=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.f_mix.nbytes
    assert again == first
    assert other == (certify_s_convex(lambda t: t ** 3, Interval(0.0, 2.0),
                                      0.25),
                     certify_s_concave(lambda t: t ** 3, Interval(0.0, 2.0),
                                       0.25))
    assert not one.passed and one.checked == 33 ** 3
