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
    RULE_LADDER,
    EndpointSingularity,
    RuleLadder,
    beta_rule,
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
# Gauss rules for the Beta(alpha, 1) law


@pytest.mark.parametrize("alpha", [1e-5, 1e-3, 0.5, 1.0, 7.0, 170.0, 1000.0])
@pytest.mark.parametrize("n", RULE_LADDER)
def test_beta_rule_reproduces_the_moments(alpha, n):
    # E[U^k] = alpha/(alpha+k) for U ~ Beta(alpha, 1), exact for k < 2n.
    # A Jacobi matrix formed from c = alpha - 1 recovers alpha as c + 1 and
    # misses these moments at alpha = 1e-5 by up to 1.6e-11 relative.
    nodes, weights = beta_rule(alpha, n)
    assert len(nodes) == len(weights) == n
    assert ((nodes > 0.0) & (nodes < 1.0)).all() and (weights > 0.0).all()
    for k in range(2 * n):
        exact = alpha / (alpha + k)
        got = math.fsum(weights * nodes ** k)
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0), k


def test_beta_rule_at_alpha_one_is_gauss_legendre():
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(12)
    nodes, weights = beta_rule(1.0, 12)
    assert nodes == pytest.approx(0.5 * (x + 1.0), abs=1e-15)
    assert weights == pytest.approx(0.5 * w, abs=1e-15)


def ladder_of(alpha):
    return RuleLadder([beta_rule(alpha, n) for n in RULE_LADDER])


def test_ladder_accepts_the_first_rung_that_meets_tol():
    ladder = ladder_of(0.5)
    assert list(ladder.sizes) == list(RULE_LADDER)
    # a cubic is exact on every rung, so the second rung is accepted
    got = ladder.estimate(ladder.nodes ** 3, 1e-12)
    assert got == pytest.approx(0.5 / 3.5, abs=1e-15)
    first, second = ladder.starts[1], ladder.starts[2]
    assert got == pytest.approx(
        math.fsum((ladder.weights * ladder.nodes ** 3)[first:second]),
        abs=1e-16)


def test_ladder_gives_up_on_unresolved_or_non_finite_integrands():
    import numpy as np

    ladder = ladder_of(1.0)
    # a kink the rungs do not resolve to 1e-12
    assert ladder.estimate(np.abs(ladder.nodes - 1.0 / 3.0), 1e-12) is None
    assert ladder.estimate(np.abs(ladder.nodes - 1.0 / 3.0), 1e-3) is not None
    values = ladder.nodes ** 2
    values[-1] = math.inf
    assert ladder.estimate(values, 1e-3) is None
    values[-1] = math.nan
    assert ladder.estimate(values, 1e-3) is None


def test_ladder_rounding_term_blocks_tolerances_below_it():
    # exact on every rung, but a sum of terms near 1e6 cannot resolve 1e-12
    ladder = ladder_of(2.0)
    assert ladder.estimate(1e6 + 0.0 * ladder.nodes, 1e-12) is None
    assert ladder.estimate(1e6 + 0.0 * ladder.nodes, 1e-6) == pytest.approx(
        1e6, rel=1e-15)
