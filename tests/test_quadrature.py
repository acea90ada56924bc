"""Quadrature: the adaptive engine, the tanh-sinh ladder and the
Beta(alpha, 1) expectation built on both."""

import math

import numpy as np
import pytest

from fracineq import (
    AccuracyError,
    DomainError,
    IntegrandError,
    Interval,
    beta,
    certify_s_convex,
    fracint,
    integrate,
    quadrature,
    trapezoid_defect,
)
from fracineq.quadrature import PANEL_ORDER, TANH_SINH, beta_expectation


@pytest.fixture
def fallbacks(monkeypatch):
    """The integrals beta_expectation hands to the adaptive engine."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    return calls


def both_paths(g, alpha, tol, fallbacks):
    """beta_expectation of g on the ladder, then on the adaptive fallback,
    forced by one non-finite node value; asserts which path ran."""
    values = np.array([g(u) for u in TANH_SINH.nodes.tolist()])
    on_ladder = beta_expectation(values, g, alpha, tol)
    assert fallbacks == []
    values[values.size // 2] = math.inf
    on_engine = beta_expectation(values, g, alpha, tol)
    assert len(fallbacks) == 1
    fallbacks.clear()
    return on_ladder, on_engine


def test_polynomial_smoke():
    res = integrate(lambda t: t ** 2, Interval(0.0, 1.0), 1e-10)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert res.error_estimate >= 0.0
    assert res.evaluations >= PANEL_ORDER


def test_right_singular_inverse_sqrt(fallbacks):
    # int_0^1 (1-t)^(-1/2) t dt = B(2, 1/2) = 4/3; with u = 1-t the singular
    # end is the Beta(1/2, 1) density at u = 0, and the integral is
    # 2 E[1 - U] = 2 (1 + E[-U])
    for got in both_paths(lambda u: -u, 0.5, 1e-11, fallbacks):
        assert 2.0 * (1.0 + got) == pytest.approx(4.0 / 3.0, abs=1e-10)


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
def test_singular_benchmark_power(g, fallbacks):
    # int_0^1 t^g t dt = 1/(g+2) is E[U]/alpha for U ~ Beta(alpha, 1),
    # alpha = g+1
    alpha = g + 1.0
    for got in both_paths(lambda u: u, alpha, 1e-11, fallbacks):
        assert got / alpha == pytest.approx(1.0 / (g + 2.0), abs=1e-10)


def test_beta_expectation_paths_agree_on_a_singular_kernel(fallbacks):
    # int_0^1 t^(-3/4) cos t dt = 4 (1 + E[cos U - 1]) at alpha = 1/4,
    # the series sum_n (-1)^n / ((2n)! (2n + 1/4))
    series = math.fsum((-1) ** n / (math.factorial(2 * n) * (2 * n + 0.25))
                       for n in range(12))
    on_ladder, on_engine = both_paths(lambda u: math.cos(u) - 1.0, 0.25,
                                      1e-12, fallbacks)
    assert on_ladder == pytest.approx(on_engine, abs=1e-11)
    for got in (on_ladder, on_engine):
        assert 4.0 * (1.0 + got) == pytest.approx(series, abs=1e-10)


@pytest.mark.parametrize("alpha", [1e-5, 0.01, 0.05, 0.3, 1.0, 2.5, 40.0])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_beta_expectation_gives_the_moments_on_both_paths(alpha, k,
                                                         fallbacks):
    # E[U^k] = alpha/(alpha+k); for alpha below MIN_SUBSTITUTION_POWER the
    # fallback's substitution v = u^power keeps power at that minimum
    exact = alpha / (alpha + k)
    for got in both_paths(lambda u: u ** k, alpha, 1e-12, fallbacks):
        assert got == pytest.approx(exact, rel=1e-11, abs=1e-13)


def test_non_finite_integrand_raises():
    with pytest.raises(IntegrandError):
        integrate(lambda t: float("nan"), Interval(0.0, 1.0), 1e-8)
    with pytest.raises(IntegrandError):
        integrate(lambda t: float("inf") if t > 0.2 else 1.0,
                  Interval(0.0, 1.0), 1e-8)


def _overflows_inside(t):
    # finite at 0 and 1, OverflowError in between; scalar-only
    return math.exp(3200.0 * t * (1.0 - t))


@pytest.mark.parametrize("call", [
    lambda: fracint.left_rl(math.exp, 0.5, 0.0, 800.0),
    lambda: fracint.right_rl(math.exp, 0.5, 800.0, 0.0),
    lambda: trapezoid_defect(_overflows_inside, Interval(0.0, 1.0), 0.5),
    lambda: certify_s_convex(_overflows_inside, Interval(0.0, 1.0), 1.0),
    lambda: integrate(math.exp, Interval(0.0, 800.0)),
], ids=["left_rl", "right_rl", "trapezoid_defect", "certify_s_convex",
        "integrate"])
def test_scalar_overflow_is_an_integrand_error(call):
    # a scalar function's OverflowError is a non-finite value, as np.exp's
    # inf would be, and ends in the IntegrandError that names the point
    with pytest.raises(IntegrandError):
        call()


@pytest.mark.parametrize("call, text", [
    (lambda: certify_s_convex(lambda t: -math.log(t), Interval(0, 1), 1.0),
     "grid node t=0.0"),
    (lambda: certify_s_convex(lambda t: 1.0 / (t - 2.0 ** -10),
                              Interval(0, 1), 1.0),
     "interior grid combination t=0.0009765625"),
    (lambda: integrate(lambda t: math.sqrt(t - 0.5), Interval(0, 1)),
     "ValueError (math domain error) at t=0."),
    (lambda: trapezoid_defect(lambda t: 1.0 / t, Interval(0, 1), 0.5),
     "ZeroDivisionError (float division by zero) at an endpoint of [0, 1], "
     "t=0"),
    (lambda: trapezoid_defect(lambda t: math.log(t - 0.5), Interval(0, 1),
                              0.5),
     "ValueError (math domain error) at an endpoint of [0, 1], t=0"),
    (lambda: fracint.left_rl(lambda t: math.log(t - 1.0), 0.5, 0.0, 1.0),
     "ValueError (math domain error) at x=1.0"),
    (lambda: fracint.right_rl(lambda t: 1.0 / t, 0.5, 1.0, 0.0),
     "ZeroDivisionError (float division by zero) at x=0.0"),
    # f fails inside the range, where only the fallback integrand reads it
    (lambda: fracint.left_rl(lambda t: 1.0 / t, 0.5, 0.0, 1.0),
     "ZeroDivisionError (float division by zero) at t=0.0"),
], ids=["certify_node", "certify_interior", "integrate",
        "trapezoid_defect_zero_division", "trapezoid_defect_domain",
        "left_rl", "right_rl", "left_rl_fallback"])
def test_scalar_domain_error_is_an_integrand_error(call, text):
    # a scalar function's ValueError or ZeroDivisionError is a non-finite
    # value, as numpy's nan or inf would be, and the IntegrandError names
    # the point
    with pytest.raises(IntegrandError) as exc_info:
        call()
    assert text in str(exc_info.value)


@pytest.mark.parametrize("call", [
    lambda f: trapezoid_defect(f, Interval(2.0, 3.0), 0.5),
    lambda f: trapezoid_defect(f, Interval(2.0, 3.0), 2.0),
    lambda f: fracint.left_rl(f, 0.5, 2.0, 3.0),
    lambda f: fracint.right_rl(f, 0.5, 3.0, 2.0),
], ids=["defect_singular", "defect_smooth", "left_rl", "right_rl"])
def test_fallback_error_names_the_point_where_f_failed(call):
    # f raises on (2.25, 2.75) only, so the ladder refuses and the fallback
    # reads f node by node; the error names f's argument t, not the
    # integration variable, which lies in [0, 1]
    def f(t):
        return math.sqrt((t - 2.25) * (t - 2.75))

    with pytest.raises(IntegrandError) as exc_info:
        call(f)
    message = str(exc_info.value)
    assert "ValueError (math domain error) at t=" in message
    t = float(message.rsplit("t=", 1)[1])
    assert 2.25 < t < 2.75
    with pytest.raises(ValueError):
        f(t)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda f: trapezoid_defect(f, Interval(2.0, 3.0), 0.5),
    lambda f: trapezoid_defect(f, Interval(2.0, 3.0), 2.0),
    lambda f: fracint.left_rl(f, 0.5, 2.0, 3.0),
    lambda f: fracint.right_rl(f, 0.5, 3.0, 2.0),
], ids=["defect_singular", "defect_smooth", "left_rl", "right_rl"])
def test_fallback_names_the_point_where_f_returned_non_finite(call, value):
    # f returns a non-finite value on (2.25, 2.75) only; the error names
    # f's argument t, not the integration variable in [0, 1]
    def f(t):
        return value if 2.25 < t < 2.75 else t * t

    with pytest.raises(IntegrandError) as exc_info:
        call(f)
    message = str(exc_info.value)
    assert f"function returned non-finite value {value!r} at t=" in message
    t = float(message.rsplit("t=", 1)[1])
    assert 2.25 < t < 2.75


def test_non_finite_value_at_a_fixed_point_is_named():
    def f(t):
        return math.inf if t in (2.0, 3.0) else t * t

    for call, text in (
            (lambda: trapezoid_defect(f, Interval(2.0, 3.0), 0.5),
             "function returned non-finite value inf at an endpoint of "
             "[2.0, 3.0], t=2.0"),
            (lambda: fracint.left_rl(f, 0.5, 1.0, 3.0),
             "function returned non-finite value inf at x=3.0")):
        with pytest.raises(IntegrandError) as exc_info:
            call()
        assert str(exc_info.value) == text


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


# ---------------------------------------------------------------------------
# The tanh-sinh ladder on [0, 1]


def test_ladder_levels_are_nested_with_closed_form_complements():
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
def test_beta_rule_reproduces_the_moments(alpha, k, fallbacks):
    # beta_expectation's rule is the ladder weighted by the density
    # alpha u^(alpha-1); it gives E[U^k] = alpha/(alpha+k) to 1e-13
    # relative, up to the mass alpha * x_min of the tail 1 - u < x_min that
    # the ladder cuts off, without falling back
    u = TANH_SINH.nodes
    exact = alpha / (alpha + k)
    got = beta_expectation(u ** k, lambda t: t ** k, alpha, 1e-12 * exact)
    assert fallbacks == []
    assert got == pytest.approx(exact, rel=1e-13, abs=alpha * u[0])


def test_node_power_cap_leaves_every_node_power_zero():
    # past the cap u^alpha underflows to 0 on every node, so capping the
    # power there changes no value
    assert np.all(np.exp(quadrature._NODE_POWER_CAP * TANH_SINH.log_nodes)
                  == 0.0)


def test_ladder_resolves_algebraic_endpoints():
    # int_0^1 t^0.25 (1-t)^0.75 dt = B(1.25, 1.75), both ends algebraic
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
