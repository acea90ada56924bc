"""Adaptive quadrature engine: smooth, singular, and failure behavior."""

import math

import pytest

from fracineq import (
    AccuracyError,
    DomainError,
    Integrand,
    IntegrandError,
    Interval,
    beta,
    integrate,
)
from fracineq.quadrature import (
    PANEL_ORDER,
    TANH_SINH,
    EndpointSingularity,
)


def test_polynomial_smoke():
    res = integrate(lambda t: t ** 2, Interval(0.0, 1.0), 1e-10)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert res.error_estimate >= 0.0
    assert res.evaluations >= PANEL_ORDER


def test_right_singular_inverse_sqrt():
    # antiderivative -2 sqrt(1-t) gives exactly 2
    f = Integrand(fn=lambda t: (1.0 - t) ** -0.5,
                  singularity=EndpointSingularity("right", -0.5))
    res = integrate(f, Interval(0.0, 1.0), 1e-10)
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_weight_kernel_against_beta_closed_form():
    # derived closed form: int_0^1 t (1 - t^0.5)(1-t)^0.5 dt
    #   = beta(2, 1.5) - beta(2.5, 1.5)  (frozen 0.0703171258173046)
    res = integrate(lambda t: t * (1.0 - t ** 0.5) * (1.0 - t) ** 0.5,
                    Interval(0.0, 1.0), 1e-10)
    closed = beta(2.0, 1.5) - beta(2.5, 1.5)
    assert closed == pytest.approx(0.0703171258173046, abs=1e-14)
    assert res.value == pytest.approx(closed, abs=1e-10)


def test_linearity_on_smooth_samples():
    f = lambda t: math.sin(t)
    g = lambda t: t ** 3 - 2.0 * t
    iv = Interval(0.0, 2.0)
    lhs = integrate(lambda t: 2.5 * f(t) + g(t), iv, 1e-12).value
    rhs = 2.5 * integrate(f, iv, 1e-12).value + integrate(g, iv, 1e-12).value
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_interval_additivity():
    f = lambda t: math.exp(-t) * math.cos(3.0 * t)
    whole = integrate(f, Interval(0.0, 2.0), 1e-12).value
    split = (integrate(f, Interval(0.0, 0.7), 1e-12).value
             + integrate(f, Interval(0.7, 2.0), 1e-12).value)
    assert whole == pytest.approx(split, abs=1e-10)


@pytest.mark.parametrize("degree", [5, 17, 33, 2 * PANEL_ORDER - 1])
def test_polynomial_exactness_up_to_rule_degree(degree):
    exact = (2.0 ** (degree + 1)) / (degree + 1)
    res = integrate(lambda t: t ** degree, Interval(0.0, 2.0), 1e-13)
    assert abs(res.value - exact) <= 1e-13 * max(1.0, exact)


@pytest.mark.parametrize("g", [-0.9, -0.5, -0.1])
def test_singular_benchmark_power(g):
    f = Integrand(fn=lambda t: t ** g,
                  singularity=EndpointSingularity("left", g))
    res = integrate(f, Interval(0.0, 1.0), 1e-10)
    assert res.value == pytest.approx(1.0 / (g + 1.0), abs=1e-9)


def test_regular_part_channel_matches_plain():
    # same kernel with and without the factored regular part
    g = -0.75
    plain = Integrand(fn=lambda t: t ** g * math.cos(t),
                      singularity=EndpointSingularity("left", g))
    factored = Integrand(
        fn=lambda t: t ** g * math.cos(t),
        singularity=EndpointSingularity("left", g,
                                        regular_part=lambda t, d: math.cos(t)))
    v1 = integrate(plain, Interval(0.0, 1.0), 1e-11).value
    v2 = integrate(factored, Interval(0.0, 1.0), 1e-11).value
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_non_finite_integrand_raises():
    with pytest.raises(IntegrandError):
        integrate(lambda t: float("nan"), Interval(0.0, 1.0), 1e-8)
    with pytest.raises(IntegrandError):
        integrate(lambda t: float("inf") if t > 0.2 else 1.0,
                  Interval(0.0, 1.0), 1e-8)


def test_budget_exhaustion_carries_best_estimate():
    # a genuinely hard corner at a tolerance the tiny budget cannot meet
    f = lambda t: abs(t - 1.0 / math.pi) ** 0.1
    with pytest.raises(AccuracyError) as exc_info:
        integrate(f, Interval(0.0, 1.0), 1e-14, max_evals=5 * PANEL_ORDER)
    err = exc_info.value
    assert math.isfinite(err.best_estimate)
    assert err.error_estimate > 1e-14
    assert err.evaluations <= 5 * PANEL_ORDER


@pytest.mark.parametrize("panels", [5, 7, 11])
def test_budget_exhaustion_best_estimate_covers_whole_interval(panels):
    # running out mid-split must not drop the segment being split
    f = lambda t: abs(t - 1.0 / math.pi) ** 0.1
    converged = integrate(f, Interval(0.0, 1.0), 1e-12).value
    with pytest.raises(AccuracyError) as exc_info:
        integrate(f, Interval(0.0, 1.0), 1e-14, max_evals=panels * PANEL_ORDER)
    assert abs(exc_info.value.best_estimate - converged) <= 1e-2


def test_tolerance_below_roundoff_floor_stops_at_floor():
    # |t^33| integrates to ~5e8 over [0, 2], so 1e-13 is far below one ulp;
    # the engine stops at the roundoff floor and reports that floor
    exact = 2.0 ** 34 / 34
    res = integrate(lambda t: t ** 33, Interval(0.0, 2.0), 1e-13)
    assert res.evaluations <= 3 * PANEL_ORDER
    assert res.error_estimate > 1e-13
    assert res.error_estimate >= abs(res.value - exact)


def test_tolerance_above_roundoff_floor_is_met():
    res = integrate(math.sin, Interval(0.0, 2.0), 1e-10)
    assert res.error_estimate <= 1e-10
    assert abs(res.value - (1.0 - math.cos(2.0))) <= res.error_estimate


@pytest.mark.parametrize("bad_tol", [1e-15, 0.5, 0.0, -1e-3])
def test_abs_tol_out_of_contract(bad_tol):
    with pytest.raises(DomainError):
        integrate(lambda t: t, Interval(0.0, 1.0), bad_tol)


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, float("inf"))
    assert Interval.parse("0.5,2").length == 1.5
    with pytest.raises(DomainError):
        Interval.parse("0.5")


@pytest.mark.parametrize("text, message", [
    ("1,0", "a < b"),
    ("1,1", "a < b"),
    ("x,1", "numeric"),
])
def test_interval_parse_names_the_problem(text, message):
    with pytest.raises(DomainError, match=message):
        Interval.parse(text)


def test_singularity_validation():
    with pytest.raises(DomainError):
        EndpointSingularity("middle", -0.5)
    with pytest.raises(DomainError):
        EndpointSingularity("left", -1.5)
    with pytest.raises(DomainError):
        EndpointSingularity("left", 0.0)


# ---------------------------------------------------------------------------
# The tanh-sinh ladder on [0, 1]


def test_ladder_levels_are_nested_with_closed_form_complements():
    import numpy as np

    assert TANH_SINH.sizes == [13, 25, 51, 101, 201]
    assert ((TANH_SINH.nodes > 0.0) & (TANH_SINH.nodes < 1.0)).all()
    # each level's nodes are every other node of the next
    on = TANH_SINH.weights > 0.0
    assert list(on.sum(axis=1)) == TANH_SINH.sizes
    assert (on[1:] >= on[:-1]).all()
    t = [k / 32.0 for k in range(-100, 101)]
    assert TANH_SINH.nodes.tolist() == [
        1.0 / (1.0 + math.exp(-math.pi * math.sinh(v))) for v in t]
    assert TANH_SINH.complements.tolist() == [
        1.0 / (1.0 + math.exp(math.pi * math.sinh(v))) for v in t]
    assert np.abs(TANH_SINH.nodes + TANH_SINH.complements - 1.0).max() \
        <= math.ulp(1.0)
    assert TANH_SINH.log_nodes.tolist() == [
        math.log(x) if x < 0.5 else math.log1p(-c)
        for x, c in zip(TANH_SINH.nodes, TANH_SINH.complements)]


@pytest.mark.parametrize("alpha", [1e-5, 1e-3, 0.5, 1.0, 7.0, 170.0, 1000.0])
@pytest.mark.parametrize("k", [6, 12, 24])
def test_beta_rule_reproduces_the_moments(alpha, k):
    # The Beta(alpha, 1) rule is the ladder weighted by the density
    # alpha u^(alpha-1), formed as trapezoid_defect forms it; it gives
    # E[U^k] = alpha/(alpha+k) to 1e-13 relative, up to the mass
    # alpha * x_min of the tail 1 - u < x_min that the ladder cuts off.
    import numpy as np

    u = TANH_SINH.nodes
    density = alpha * np.exp((alpha - 1.0) * TANH_SINH.log_nodes)
    exact = alpha / (alpha + k)
    got = TANH_SINH.estimate(density * u ** k, 1e-12 * exact)
    assert got == pytest.approx(exact, rel=1e-13, abs=alpha * u[0])


def test_ladder_resolves_algebraic_endpoints():
    # int_0^1 t^0.25 (1-t)^0.75 dt = B(1.25, 1.75), both ends algebraic
    import numpy as np

    values = np.exp(0.25 * TANH_SINH.log_nodes
                    + 0.75 * np.log(TANH_SINH.complements))
    got = TANH_SINH.estimate(values, 1e-14)
    assert got == pytest.approx(beta(1.25, 1.75), rel=0.0, abs=1e-14)


def test_ladder_accepts_the_first_rung_that_meets_tol():
    # level 1 misses 1/4 by 1e-6, level 2 is 4e-14 from level 1
    cube = TANH_SINH.nodes ** 3
    got = TANH_SINH.estimate(cube, 1e-12)
    assert got == pytest.approx(0.25, abs=1e-15)
    assert got == pytest.approx(math.fsum(TANH_SINH.weights[2] * cube),
                                abs=1e-16)
    assert TANH_SINH.estimate(cube, 1e-20) is None


def test_ladder_gives_up_on_unresolved_or_non_finite_integrands():
    ladder = TANH_SINH
    kink = abs(ladder.nodes - 1.0 / 3.0)
    # a kink the levels do not resolve to 1e-12
    assert ladder.estimate(kink, 1e-12) is None
    assert ladder.estimate(kink, 1e-3) == pytest.approx(5.0 / 18.0, abs=1e-3)
    values = ladder.nodes ** 2
    values[-1] = math.inf
    assert ladder.estimate(values, 1e-3) is None
    values[-1] = math.nan
    assert ladder.estimate(values, 1e-3) is None


def test_ladder_rounding_term_blocks_tolerances_below_it():
    # exact on every level, but a sum of terms near 1e6 cannot resolve 1e-12
    values = 1e6 + 0.0 * TANH_SINH.nodes
    assert TANH_SINH.estimate(values, 1e-12) is None
    assert TANH_SINH.estimate(values, 1e-6) == pytest.approx(1e6, rel=1e-15)


def test_ladder_rechecks_rounding_limited_levels_exactly():
    # a sum of terms near 300: on the 101-node level the worst-case bound
    # 101 * eps * 300 = 6.7e-12 refuses 1e-12, the exact sum's own
    # eps * 300 + ulp(300) does not
    values = 300.0 + 0.0 * TANH_SINH.nodes
    assert TANH_SINH.sizes[3] * math.ulp(1.0) * 300.0 > 1e-12
    got = TANH_SINH.estimate(values, 1e-12)
    assert got == math.fsum((TANH_SINH.weights[3] * values).tolist())
    assert got == pytest.approx(300.0, rel=0.0, abs=1e-12)
