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
    TestFunction,
    beta,
    certify_s_convex,
    classical_convex_bound,
    classical_holder_bound,
    defect_bound_s_convex,
    defect_identity_rhs,
    fracint,
    get_function,
    integrate,
    quadrature,
    s_convex_sandwich,
    trapezoid_defect,
)
from fracineq.funclib import ConvexityClass, _eval_grid
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
    (on_ladder,) = beta_expectation(values, g, (alpha,), (tol,))
    assert fallbacks == []
    values[values.size // 2] = math.inf
    (on_engine,) = beta_expectation(values, g, (alpha,), (tol,))
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
    # every value finite, their weighted sum not
    with pytest.raises(IntegrandError, match="integrand sum overflowed"):
        integrate(lambda t: 1e308, Interval(0.0, 10.0))


def test_a_complex_value_of_the_integrand_is_an_integrand_error_naming_t():
    # (t - 0.5) ** 0.5 of a Python float below 0.5 is complex, and float()
    # of it used to escape the engine as a bare TypeError
    with pytest.raises(IntegrandError, match=r"non-real value .* at t=0\."):
        integrate(lambda t: (t - 0.5) ** 0.5, Interval(0, 1))


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
    # the bounds read f'' = -t^-1.5 / 4 at the endpoints, with or without
    # the gate
    (lambda: classical_convex_bound(get_function("root_power_0.5"),
                                    Interval(0.0, 1.0), 1.0),
     "ZeroDivisionError (0.0 cannot be raised to a negative power) at "
     "t=0.0"),
    (lambda: defect_bound_s_convex(get_function("root_power_0.5"),
                                   Interval(0.0, 1.0), 1.0, 0.5,
                                   certify=False),
     "ZeroDivisionError (0.0 cannot be raised to a negative power) at "
     "t=0.0"),
    # f is finite on arrays, where the gate reads it, and divides by t
    # when the sandwich reads it at a point
    (lambda: s_convex_sandwich(
        lambda t: t * t if isinstance(t, np.ndarray) else 1.0 / t,
        Interval(0.0, 1.0), 1.0),
     "ZeroDivisionError (float division by zero) at t=0.0"),
], ids=["certify_node", "certify_interior", "integrate",
        "trapezoid_defect_zero_division", "trapezoid_defect_domain",
        "left_rl", "right_rl", "left_rl_fallback", "convex_bound",
        "s_convex_bound", "sandwich"])
def test_scalar_domain_error_is_an_integrand_error(call, text):
    # a scalar function's ValueError or ZeroDivisionError is a non-finite
    # value, as numpy's nan or inf would be, and the IntegrandError names
    # the point
    with pytest.raises(IntegrandError) as exc_info:
        call()
    assert text in str(exc_info.value)


def _with_d2(d2):
    """A catalog-style function whose f and f'' are both ``d2``."""
    return TestFunction("d2", d2, d2, ConvexityClass("none"),
                        Interval(2.0, 3.0))


@pytest.mark.parametrize("call", [
    lambda f: trapezoid_defect(f, Interval(2.0, 3.0), 0.5),
    lambda f: trapezoid_defect(f, Interval(2.0, 3.0), 2.0),
    lambda f: fracint.left_rl(f, 0.5, 2.0, 3.0),
    lambda f: fracint.right_rl(f, 0.5, 3.0, 2.0),
    lambda f: defect_identity_rhs(_with_d2(f), Interval(2.0, 3.0), 0.5),
], ids=["defect_singular", "defect_smooth", "left_rl", "right_rl",
        "identity_rhs"])
def test_fallback_error_names_the_point_where_f_failed(call):
    # f raises on (2.25, 2.75) only, so the ladder refuses and the fallback
    # reads f node by node; the error names f's argument t, not the
    # integration variable, which lies in [0, 1] (for the identity rhs, f
    # is f'')
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
    lambda f: defect_identity_rhs(_with_d2(f), Interval(2.0, 3.0), 0.5),
], ids=["defect_singular", "defect_smooth", "left_rl", "right_rl",
        "identity_rhs"])
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
             "function returned non-finite value inf at x=3.0"),
            # a bound on an f'' that is inf at a would be inf, which every
            # |D| satisfies
            (lambda: classical_convex_bound(_with_d2(f), Interval(2.0, 3.0),
                                            1.0),
             "function returned non-finite value inf at t=2.0"),
            (lambda: classical_holder_bound(_with_d2(f), Interval(2.0, 3.0),
                                            1.0, 2.0),
             "function returned non-finite value inf at t=2.0")):
        with pytest.raises(IntegrandError) as exc_info:
            call()
        assert str(exc_info.value) == text


# the reading rule, one row per kind of failed read: a scalar-only f (its
# float(t) raises TypeError on an array, so _eval_grid reads it point by
# point) that fails the same way at every t, the reason every point read
# gives, and the value _eval_grid puts in its place
READ_FAILURES = [
    (lambda x: math.exp(1000.0 + 0.0 * x), "overflows", math.inf),
    (lambda x: math.log(-1.0 + 0.0 * x),
     "raised ValueError (math domain error)", math.nan),
    (lambda x: 1.0 / (0.0 * x),
     "raised ZeroDivisionError (float division by zero)", math.nan),
    (lambda x: (-1.0 + 0.0 * x) ** 0.5,
     f"returned non-real value {(-1.0) ** 0.5!r}", math.nan),
    (lambda x: math.inf + x, "returned non-finite value inf", math.inf),
    (lambda x: math.nan * x, "returned non-finite value nan", math.nan),
]


@pytest.mark.parametrize("fail, reason, grid_value", READ_FAILURES,
                         ids=["overflow", "value_error", "zero_division",
                              "complex", "inf", "nan"])
def test_every_read_of_a_function_follows_one_rule(fail, reason, grid_value):
    def f(t):
        return fail(float(t))

    with pytest.raises(IntegrandError) as point:
        quadrature._point_value(f, 0.25)
    assert str(point.value) == f"function {reason} at t=0.25"
    # the engine names the first node of its first panel, the whole [0, 1]
    first_node = 0.5 + 0.5 * quadrature._NODES[0]
    with pytest.raises(IntegrandError) as engine:
        integrate(f, Interval(0.0, 1.0))
    assert str(engine.value) == f"function {reason} at t={first_node!r}"
    got = _eval_grid(f, np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(got, np.full(5, grid_value))


def test_budget_exhaustion_carries_best_estimate():
    # a genuinely hard corner at a tolerance the tiny budget cannot meet
    f = lambda t: abs(t - 1.0 / math.pi) ** 0.1
    with pytest.raises(AccuracyError) as exc_info:
        integrate(f, Interval(0.0, 1.0), 1e-14, max_evals=5 * PANEL_ORDER)
    err = exc_info.value
    assert math.isfinite(err.best_estimate)
    assert err.error_estimate > 1e-14
    assert err.evaluations <= 5 * PANEL_ORDER
    # a budget below three panels cannot pay for the first estimate
    with pytest.raises(DomainError, match="max_evals too small"):
        integrate(f, Interval(0.0, 1.0), 1e-10, max_evals=10)


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


def test_every_default_tolerance_is_the_one_constant():
    import inspect

    from fracineq import hhbounds, sweep

    default = quadrature.DEFAULT_QUAD_TOL
    assert default == 1e-10
    for fn, name in ((integrate, "abs_tol"), (fracint.left_rl, "abs_tol"),
                     (fracint.right_rl, "abs_tol"),
                     (trapezoid_defect, "quad_tol"),
                     (defect_identity_rhs, "quad_tol"),
                     (s_convex_sandwich, "quad_tol"),
                     (hhbounds.weight_integral_report, "quad_tol")):
        assert inspect.signature(fn).parameters[name].default is default
    assert hhbounds.DEFAULT_QUAD_TOL is default
    assert sweep.SweepConfig._field_defaults["quad_tol"] is default


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
    (got,) = beta_expectation(u ** k, lambda t: t ** k, (alpha,),
                              (1e-12 * exact,))
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
    got = TANH_SINH.estimate(values[None], [1e-14])[0]
    assert got == pytest.approx(beta(1.25, 1.75), rel=0.0, abs=1e-14)


def test_ladder_accepts_the_first_rung_that_meets_tol():
    # level 1 misses 1/4 by 1e-6, level 2 is 4e-14 from level 1
    cube = TANH_SINH.nodes ** 3
    got = TANH_SINH.estimate(cube[None], [1e-12])[0]
    assert got == pytest.approx(0.25, abs=1e-15)
    assert got == pytest.approx(math.fsum(TANH_SINH.weights[2] * cube),
                                abs=1e-16)
    assert TANH_SINH.estimate(cube[None], [1e-20])[0] is None


def test_ladder_gives_up_on_unresolved_or_non_finite_integrands():
    ladder = TANH_SINH
    kink = abs(ladder.nodes - 1.0 / 3.0)
    # a kink the levels do not resolve to 1e-12
    assert ladder.estimate(kink[None], [1e-12])[0] is None
    assert ladder.estimate(kink[None], [1e-3])[0] == pytest.approx(
        5.0 / 18.0, abs=1e-3)
    values = ladder.nodes ** 2
    values[-1] = math.inf
    assert ladder.estimate(values[None], [1e-3])[0] is None
    values[-1] = math.nan
    assert ladder.estimate(values[None], [1e-3])[0] is None


def test_ladder_rounding_term_blocks_tolerances_below_it():
    # exact on every level, but a sum of terms near 1e6 cannot resolve 1e-12
    values = 1e6 + 0.0 * TANH_SINH.nodes
    assert TANH_SINH.estimate(values[None], [1e-12])[0] is None
    assert TANH_SINH.estimate(values[None], [1e-6])[0] == pytest.approx(
        1e6, rel=1e-15)


def test_ladder_rechecks_rounding_limited_levels_exactly():
    # a sum of terms near 300: on the 101-node level the worst-case bound
    # 101 * eps * 300 = 6.7e-12 refuses 1e-12, the exact sum's own
    # eps * 300 + ulp(300) does not
    values = 300.0 + 0.0 * TANH_SINH.nodes
    assert TANH_SINH.sizes[3] * math.ulp(1.0) * 300.0 > 1e-12
    got = TANH_SINH.estimate(values[None], [1e-12])[0]
    assert got == math.fsum((TANH_SINH.weights[3] * values).tolist())
    assert got == pytest.approx(300.0, rel=0.0, abs=1e-12)


def test_ladder_rows_are_summed_as_if_alone():
    # one batch: a smooth row, a kink the ladder refuses at 1e-12, a row
    # with an infinite value (kept out of the products, where inf * 0
    # would warn), and the smooth row again at a tolerance no level meets;
    # each gets the bits it gets as a batch of one
    u = TANH_SINH.nodes
    bad = u ** 2
    bad[7] = math.inf
    rows = np.array([u ** 3, abs(u - 1.0 / 3.0), bad, u ** 3])
    tols = [1e-12, 1e-12, 1e-3, 1e-20]
    got = TANH_SINH.estimate(rows, tols)
    alone = [TANH_SINH.estimate(row[None], [tol])[0]
             for row, tol in zip(rows, tols)]
    assert got == alone
    assert got[0] == pytest.approx(0.25, abs=1e-15)
    assert got[1:] == [None, None, None]


def test_beta_expectation_sends_only_refused_orders_to_the_engine(fallbacks):
    # g(u) = |u - 1/3| - 1/3: the ladder refuses its kink at alpha = 0.5,
    # which goes to the engine; at alpha = 200 and 50 the density leaves
    # almost no mass near the kink, and those orders stay on the ladder
    # with the bits each gets alone.  E[|U - c|] = 2 c^(alpha+1)/(alpha+1)
    # + alpha/(alpha+1) - c for U ~ Beta(alpha, 1)
    u = TANH_SINH.nodes

    def g(t):
        return abs(t - 1.0 / 3.0) - 1.0 / 3.0

    alphas, tols = (200.0, 0.5, 50.0), (1e-12, 1e-12, 1e-12)
    got = beta_expectation(g(u), g, alphas, tols)
    assert len(fallbacks) == 1
    fallbacks.clear()
    for value, alpha, tol in zip(got, alphas, tols):
        (alone,) = beta_expectation(g(u), g, (alpha,), (tol,))
        assert value.hex() == alone.hex()
        c = 1.0 / 3.0
        exact = (2.0 * c ** (alpha + 1.0) / (alpha + 1.0)
                 + alpha / (alpha + 1.0) - 2.0 * c)
        assert value == pytest.approx(exact, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("family", [0, 1], ids=["density", "rhs_weight"])
def test_only_the_refused_row_of_a_batch_reaches_the_engine(family,
                                                           fallbacks):
    # a batch of either family of order rows, the Beta(alpha, 1) densities
    # alpha u^(alpha-1) or the rhs weights t (1 - t^alpha), times t^2; one
    # non-finite node forces the middle row off the ladder, and only that
    # row reaches integrate; every row keeps the bits it gets alone.
    # E[U^2] = alpha/(alpha+2), int_0^1 t^3 (1 - t^alpha) dt
    # = 1/4 - 1/(alpha+4)
    alphas, tols = (0.5, 2.0, 7.0), [1e-12] * 3
    rows = quadrature._order_rows(alphas)[family] * TANH_SINH.nodes ** 2
    rows[1, rows.shape[1] // 2] = math.inf

    def integrand(r):
        alpha = alphas[r]
        if family == 0:
            return lambda t: alpha * t ** (alpha - 1.0) * t ** 2
        return lambda t: t * -math.expm1(alpha * math.log(t)) * t ** 2

    got = quadrature._ladder_rows(rows, tols, integrand)
    assert len(fallbacks) == 1
    assert fallbacks[0][0](0.25) == integrand(1)(0.25)
    fallbacks.clear()
    for r, (value, alpha) in enumerate(zip(got, alphas)):
        (alone,) = quadrature._ladder_rows(rows[r:r + 1], tols[r:r + 1],
                                           lambda _: integrand(r))
        assert value.hex() == alone.hex()
        exact = (alpha / (alpha + 2.0) if family == 0
                 else 0.25 - 1.0 / (alpha + 4.0))
        assert value == pytest.approx(exact, rel=0.0, abs=1e-12)


def test_order_rows_are_cached_read_only_and_bit_exact():
    # the densities alpha exp((alpha-1) ln u) and the rhs weights
    # t (-expm1(alpha ln t)), each power capped at _NODE_POWER_CAP, built
    # once per tuple of orders
    alphas = (1e-5, 0.5, 1.0, 7.0, 1e5, 1e308)
    density, weights = quadrature._order_rows(alphas)
    orders, cap = np.array(alphas), quadrature._NODE_POWER_CAP
    log_u = TANH_SINH.log_nodes
    expected_density = orders[:, None] * np.exp(
        np.minimum(orders - 1.0, cap)[:, None] * log_u)
    expected_weights = TANH_SINH.nodes * -np.expm1(
        np.minimum(orders, cap)[:, None] * log_u)
    assert density.tobytes() == expected_density.tobytes()
    assert weights.tobytes() == expected_weights.tobytes()
    assert not (density.flags.writeable or weights.flags.writeable)
    again = quadrature._order_rows(alphas)
    assert again[0] is density and again[1] is weights
