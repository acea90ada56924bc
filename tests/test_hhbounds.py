"""Defect, identity, sandwich, and bound evaluators against hand oracles."""

import math
from itertools import product

import numpy as np
import pytest

from fracineq import (
    BoundParams,
    DomainError,
    Interval,
    PreconditionError,
    TestFunction,
    classical_concave_bound,
    classical_convex_bound,
    classical_holder_bound,
    classical_power_mean_bound,
    defect_bound_holder,
    defect_bound_power_mean,
    defect_bound_s_concave,
    defect_bound_s_convex,
    defect_identity_rhs,
    gamma,
    get_function,
    left_rl,
    right_rl,
    s_convex_sandwich,
    trapezoid_defect,
    weight_integral_report,
)
from fracineq import beta, hhbounds, quadrature
from fracineq.funclib import ConvexityClass, _eval_grid
from fracineq.quadrature import TANH_SINH, integrate

UNIT = Interval(0.0, 1.0)
SQUARE = get_function("square")
LINEAR = get_function("linear")
CUBE = get_function("cube")

SQRT_BETA_33 = math.sqrt(1.0 / 30.0)   # beta(3,3)^(1/2), hand value


def test_defect_square_alpha_one():
    # (f(0)+f(1))/2 - int_0^1 t^2 dt = 1/2 - 1/3
    d = trapezoid_defect(SQUARE, UNIT, 1.0)
    assert d.lhs == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert d.abs_lhs == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_defect_constant_is_zero():
    const = get_function("const_one")
    for alpha in (0.25, 1.0, 2.0):
        d = trapezoid_defect(const, Interval(0.5, 2.0), alpha)
        assert d.lhs == pytest.approx(0.0, abs=1e-10)


def test_defect_square_alpha_half():
    # elementary evaluation gives exactly 2/15 (oracle prework)
    d = trapezoid_defect(SQUARE, UNIT, 0.5)
    assert d.lhs == pytest.approx(2.0 / 15.0, abs=1e-10)


def test_defect_result_reconstructible():
    # the defect as the paper writes it, assembled from the RL operators,
    # over the README grid: checks left_rl/right_rl against the defect
    for name in ("square", "cube", "s_power_0.5"):
        f = get_function(name)
        for a, b in ((0.0, 1.0), (0.0, 2.0), (1.0, 3.0)):
            for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
                d = trapezoid_defect(f, Interval(a, b), alpha)
                coeff = gamma(alpha + 1.0) / (2.0 * (b - a) ** alpha)
                rebuilt = 0.5 * (d.fa + d.fb) - coeff * (
                    left_rl(f, alpha, a, b) + right_rl(f, alpha, b, a))
                assert rebuilt == pytest.approx(d.lhs, abs=1e-9), (
                    name, a, b, alpha)


@pytest.mark.parametrize("name, a, b, alpha, quad_tol", [
    ("s_power_0.25", 0.0, 1.0, 7.0, 1e-12),
    ("s_power_0.75", 0.0, 1.0, 7.0, 1e-12),
    ("s_power_0.5", 1.0, 3.0, 1.5, 1e-10),
    ("s_power_0.25", 0.0, 2.0, 0.1, 1e-12),
])
def test_defect_meets_quad_tol_against_mpmath(name, a, b, alpha, quad_tol):
    mpmath = pytest.importorskip("mpmath")
    f = get_function(name)
    s = float(name.rsplit("_", 1)[1])
    with mpmath.workdps(30):
        # s_power_<s> is t^(s+2) / ((s+1)(s+2))
        def fm(t):
            return t ** (s + 2) / ((s + 1) * (s + 2))

        h, ends = mpmath.mpf(b) - a, fm(mpmath.mpf(a)) + fm(mpmath.mpf(b))
        exact = -0.5 * mpmath.quad(
            lambda u: alpha * u ** (alpha - 1)
            * (fm(a + h * u) + fm(b - h * u) - ends), [0, 0.5, 1])
        assert f.fn(0.7) == pytest.approx(float(fm(mpmath.mpf(0.7))),
                                          rel=1e-15)
    lhs = trapezoid_defect(f, Interval(a, b), alpha, quad_tol=quad_tol).lhs
    assert abs(lhs - float(exact)) <= quad_tol


def test_identity_rhs_examples():
    assert defect_identity_rhs(SQUARE, UNIT, 1.0) == pytest.approx(
        1.0 / 6.0, abs=1e-10)
    assert defect_identity_rhs(LINEAR, Interval(0.0, 3.0), 0.5) == pytest.approx(
        0.0, abs=1e-10)
    # the identity itself, both sides computed independently
    lhs = trapezoid_defect(CUBE, Interval(0.0, 2.0), 0.5).lhs
    rhs = defect_identity_rhs(CUBE, Interval(0.0, 2.0), 0.5)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_sandwich_sqrt():
    sw = s_convex_sandwich(lambda t: t ** 0.5, UNIT, 0.5)
    assert sw.lower == pytest.approx(0.5, abs=1e-9)
    assert sw.mean == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert sw.upper == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the /2 reading is recorded and is visibly below the mean here
    assert sw.upper_classical == pytest.approx(0.5, abs=1e-12)
    assert sw.upper_classical < sw.mean
    # math.sqrt takes no array: the gate and the nonnegativity read fall
    # back to one scalar call per node
    scalar = s_convex_sandwich(math.sqrt, UNIT, 0.5)
    assert tuple(scalar) == pytest.approx(tuple(sw), abs=1e-12)


def test_sandwich_linear_collapses():
    sw = s_convex_sandwich(LINEAR, UNIT, 1.0)
    assert (sw.lower, sw.mean, sw.upper) == pytest.approx(
        (0.5, 0.5, 0.5), abs=1e-10)


def test_sandwich_square_wide_interval():
    sw = s_convex_sandwich(SQUARE, Interval(0.0, 2.0), 1.0)
    assert sw.lower == pytest.approx(1.0, abs=1e-10)
    assert sw.mean == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert sw.upper == pytest.approx(2.0, abs=1e-12)


def test_sandwich_rejects_non_s_convex():
    neg = TestFunction("neg_square", lambda t: -t ** 2, lambda t: -2.0 + 0.0 * t,
                       ConvexityClass("concave"), UNIT)
    with pytest.raises(PreconditionError):
        s_convex_sandwich(neg, UNIT, 1.0)


def test_sandwich_rejects_negative_function():
    shifted = TestFunction("below_zero", lambda t: t - 0.5, lambda t: 0.0 * t,
                           ConvexityClass("convex"), UNIT)
    with pytest.raises(PreconditionError):
        s_convex_sandwich(shifted, UNIT, 1.0)


def test_sandwich_reads_f_nonnegative_within_the_certifier_slack():
    # (t - 1/2)^2 - c is convex and its lowest grid node, t = 1/2, is
    # exactly -c: the certifier's slack forgives c = CERT_SLACK, not twice it
    from fracineq.funclib import CERT_SLACK

    def dipped(c):
        return lambda t: (t - 0.5) ** 2 - c

    sw = s_convex_sandwich(dipped(CERT_SLACK), UNIT, 1.0)
    assert sw.lower == -CERT_SLACK
    assert sw.mean == pytest.approx(1.0 / 12.0, abs=1e-10)
    with pytest.raises(PreconditionError, match="nonnegative"):
        s_convex_sandwich(dipped(2.0 * CERT_SLACK), UNIT, 1.0)


def test_bound_s_convex_equality_case():
    # weight bracket at (1, 1): 1/12 + 1/6 - 1/12 = 1/6; |f''| sum = 4
    bound = defect_bound_s_convex(SQUARE, UNIT, 1.0, 1.0)
    assert bound == pytest.approx(1.0 / 6.0, abs=1e-12)
    defect = trapezoid_defect(SQUARE, UNIT, 1.0).abs_lhs
    assert abs(defect - bound) <= 1e-10


def test_bound_s_convex_linear_zero():
    assert defect_bound_s_convex(LINEAR, UNIT, 0.5, 0.5) == pytest.approx(0.0)
    assert trapezoid_defect(LINEAR, UNIT, 0.5).abs_lhs <= 1e-10


def test_bound_holder_hand_value():
    bound = defect_bound_holder(SQUARE, UNIT, BoundParams(1.0, 1.0, p=2.0))
    assert bound == pytest.approx(0.5 * SQRT_BETA_33 * 2.0, abs=1e-12)
    assert trapezoid_defect(SQUARE, UNIT, 1.0).abs_lhs <= bound


def test_bound_power_mean_collapses_to_s_convex_at_q1():
    for alpha in (0.25, 0.5, 1.0, 2.0, 5.0):
        for s in (0.25, 0.5, 1.0):
            b1 = defect_bound_power_mean(SQUARE, UNIT, alpha, s, 1.0)
            b2 = defect_bound_s_convex(SQUARE, UNIT, alpha, s)
            assert b1 == pytest.approx(b2, rel=1e-12)
    assert defect_bound_power_mean(SQUARE, UNIT, 1.0, 1.0, 1.0) == pytest.approx(
        1.0 / 6.0, abs=1e-12)
    assert defect_bound_power_mean(LINEAR, UNIT, 0.5, 0.5, 2.0) == 0.0


def test_bound_s_concave_constant_curvature():
    bound = defect_bound_s_concave(SQUARE, UNIT, BoundParams(1.0, 1.0, p=2.0))
    assert bound == pytest.approx(0.5 * SQRT_BETA_33 * 2.0, abs=1e-12)
    assert defect_bound_s_concave(LINEAR, UNIT, BoundParams(1.0, 1.0, p=2.0)) == 0.0


def test_bound_s_concave_rejects_increasing_curvature():
    # |f''|^q = (6t)^q is never concave for q > 1
    with pytest.raises(PreconditionError):
        defect_bound_s_concave(CUBE, UNIT, BoundParams(0.5, 1.0, p=2.0))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_s1_reduction_holder_exact(alpha, p):
    got = defect_bound_holder(SQUARE, UNIT, BoundParams(alpha, 1.0, p=p))
    base = classical_holder_bound(SQUARE, UNIT, alpha, p)
    assert got == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_s1_reduction_power_mean_exact(alpha, q):
    got = defect_bound_power_mean(CUBE, UNIT, alpha, 1.0, q)
    base = classical_power_mean_bound(CUBE, UNIT, alpha, q)
    assert got == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_s1_reduction_concave_exact(alpha, p):
    got = defect_bound_s_concave(SQUARE, UNIT, BoundParams(alpha, 1.0, p=p))
    base = classical_concave_bound(SQUARE, UNIT, alpha, p)
    assert got == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("alpha,s", [(0.5, 0.5), (1.0, 1.0), (0.25, 0.75),
                                     (2.0, 1.0)])
def test_weight_integral_identities(alpha, s):
    rep = weight_integral_report(alpha, s, 2.0)
    assert [e.check_id for e in rep.entries] == [
        "weight_int_power", "weight_int_beta", "weight_int_plain",
        "holder_kernel_bound"]
    assert rep.entries[3].in_validated_range == (alpha <= 1.0)
    for e in rep.entries:
        if e.check_id != "holder_kernel_bound":
            assert abs(e.lhs - e.rhs) <= 1e-9, e


def test_weight_integral_hand_values():
    rep = weight_integral_report(1.0, 1.0, 2.0)
    by_id = {e.check_id: e for e in rep.entries}
    # int_0^1 t^2 (1-t) dt = 1/12; int_0^1 t (1-t)^2 dt = 1/12
    assert by_id["weight_int_power"].lhs == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert by_id["weight_int_beta"].lhs == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert by_id["weight_int_beta"].rhs == pytest.approx(1.0 / 6.0 - 1.0 / 12.0,
                                                         abs=1e-12)


def test_kernel_bound_flips_outside_unit_alpha():
    inside = weight_integral_report(0.5, 1.0, 2.0)
    e_in = {x.check_id: x for x in inside.entries}["holder_kernel_bound"]
    assert e_in.holds and e_in.in_validated_range
    outside = weight_integral_report(2.0, 1.0, 2.0)
    e_out = {x.check_id: x for x in outside.entries}["holder_kernel_bound"]
    assert not e_out.in_validated_range
    assert not e_out.holds   # measured violation, reported not asserted
    assert inside.all_hold and outside.all_hold


def weight_entry(check_id, alpha=1.0, s=1.0, p=2.0, **tols):
    """The entry ``check_id`` of ``weight_integral_report(alpha, s, p)``."""
    entries = weight_integral_report(alpha, s, p, **tols).entries
    return {e.check_id: e for e in entries}[check_id]


LARGE_ORDERS = [1e3, 1e5, 1e6, 1e9]


@pytest.mark.parametrize("alpha", LARGE_ORDERS)
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_weight_identities_hold_at_large_orders(alpha, s):
    # 1 - t^alpha leaves 1 only in a layer of width about 1/alpha below
    # t = 1; the adaptive engine's panels never sampled it and returned the
    # alpha -> inf limit (1/3 against 0.3333233 at alpha = 1e5, s = 1)
    from fracineq.hhbounds import DEFAULT_QUAD_TOL
    from fracineq.specfun import beta

    power = weight_entry("weight_int_power", alpha, s)
    assert abs(power.lhs - alpha / ((s + 2.0) * (alpha + s + 2.0))) <= \
        DEFAULT_QUAD_TOL
    closed = beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0)
    beta_entry = weight_entry("weight_int_beta", alpha, s)
    assert abs(beta_entry.lhs - closed) <= DEFAULT_QUAD_TOL
    assert power.holds and beta_entry.holds


@pytest.mark.parametrize("alpha", LARGE_ORDERS)
def test_holder_kernel_meets_its_closed_form_at_large_orders(alpha):
    # int_0^1 t^2 (1 - t^alpha)^2 dt, expanded
    from fracineq.hhbounds import DEFAULT_QUAD_TOL

    closed = 1.0 / 3.0 - 2.0 / (alpha + 3.0) + 1.0 / (2.0 * alpha + 3.0)
    assert abs(weight_entry("holder_kernel_bound", alpha, p=2.0).lhs
               - closed) <= DEFAULT_QUAD_TOL


def test_concavity_midpoint_step():
    # mean over the chord of a certified concave channel never beats the
    # midpoint value: int_0^1 g(ta+(1-t)b) dt <= 2^(s-1) g(mid) at s = 1
    from fracineq import integrate

    a, b = 0.0, 1.0
    for q in (1.5, 2.0):
        g = lambda t, q=q: abs(CUBE.d2(t)) ** (1.0 / q)   # (6t)^(1/q), concave
        mean = integrate(lambda t: g(t * a + (1 - t) * b), UNIT, 1e-11).value
        assert mean <= g(0.5 * (a + b)) + 1e-8


def test_scaling_by_interval_dilation():
    # f_c(t) = c^2 f(a + (t-a)/c) keeps endpoint curvature; defect and
    # bounds scale by c^2
    c = 3.0
    base_iv = UNIT
    wide_iv = Interval(0.0, c)
    f_scaled = TestFunction(
        "cube_rescaled", lambda t: c * c * (t / c) ** 3,
        lambda t: 6.0 * t / c, ConvexityClass("convex"), wide_iv)
    for alpha in (0.5, 1.0, 2.0):
        d0 = trapezoid_defect(CUBE, base_iv, alpha).lhs
        d1 = trapezoid_defect(f_scaled, wide_iv, alpha).lhs
        assert d1 == pytest.approx(c * c * d0, abs=1e-8)
        b0 = defect_bound_s_convex(CUBE, base_iv, alpha, 1.0)
        b1 = defect_bound_s_convex(f_scaled, wide_iv, alpha, 1.0)
        assert b1 == pytest.approx(c * c * b0, rel=1e-10)


def test_bound_params_validation():
    p = BoundParams(alpha=1.0, s=0.5, p=2.0)
    assert p.q == pytest.approx(2.0)
    assert BoundParams(alpha=1.0, s=1.0, p=1.5).q == pytest.approx(3.0)
    BoundParams(alpha=1.0, s=1.0, p=2.0, q=2.0)         # explicit conjugate ok
    with pytest.raises(DomainError):
        BoundParams(alpha=1.0, s=1.0, p=2.0, q=3.0)     # not conjugate
    with pytest.raises(DomainError):
        BoundParams(alpha=1.0, s=1.0, p=2.0, q=0.0)     # no conjugate at all
    with pytest.raises(DomainError):
        BoundParams(alpha=1.0, s=1.0, p=1.0)
    with pytest.raises(DomainError):
        BoundParams(alpha=0.0, s=1.0)
    with pytest.raises(DomainError):
        BoundParams(alpha=1.0, s=0.0)
    with pytest.raises(DomainError):
        BoundParams(alpha=1.0, s=1.0, q=0.5)
    with pytest.raises(DomainError):
        defect_bound_holder(SQUARE, UNIT, BoundParams(1.0, 1.0, q=2.0))


def test_bound_params_store_the_floats_their_validators_return():
    bp = BoundParams("0.5", "1", p="2")
    assert [type(v) for v in (bp.alpha, bp.s, bp.p, bp.q)] == [float] * 4
    assert (bp.alpha, bp.s, bp.p, bp.q) == (0.5, 1.0, 2.0, 2.0)
    assert BoundParams(1, 1, q="3").q == 3.0
    assert defect_bound_holder(SQUARE, UNIT, bp) == defect_bound_holder(
        SQUARE, UNIT, BoundParams(0.5, 1.0, p=2.0))
    assert defect_bound_s_convex(SQUARE, UNIT, "0.5", "1") == (
        defect_bound_s_convex(SQUARE, UNIT, 0.5, 1.0))


def monomial_defect(k: int, b: float, alpha: float) -> float:
    """D for t^k on [0, b]: (b^k/2) [k/(k+alpha) - k!/((alpha+1)...(alpha+k))],
    from the Beta(alpha, 1) moments E[U^k] and E[(1-U)^k]."""
    rising = math.prod(alpha + j for j in range(1, k + 1))
    return 0.5 * b ** k * (k / (k + alpha) - math.factorial(k) / rising)


# The first seven cases lie where the paper's normalisation
# Gamma(alpha+1)/(2(b-a)^alpha) overflows or underflows.  At 150 and 170 on
# [0, 1] it is about 3e262 and 4e306, enough to amplify quadrature error
# past quad_tol wherever it is formed.  At 1e-4 nearly all the
# Beta(alpha, 1) mass lies within 1e-100 of u = 0, and at 1e-5 within
# 1e-1000.
@pytest.mark.parametrize("name, k, b, alpha", [
    ("square", 2, 1.0, 170.7), ("square", 2, 1.0, 171.0),
    ("square", 2, 1.0, 200.0), ("square", 2, 1.0, 1000.0),
    ("cube", 3, 100.0, 170.0), ("cube", 3, 0.01, 162.0),
    ("square", 2, 0.5, 170.0), ("square", 2, 10.0, 170.0),
    ("square", 2, 1.0, 150.0), ("square", 2, 1.0, 170.0),
    ("square", 2, 1.0, 1e-4), ("square", 2, 1.0, 1e-5),
    ("cube", 3, 1.0, 1e-5),
], ids=["gamma_overflows", "alpha_171", "alpha_200", "alpha_1000",
        "power_overflows", "power_underflows", "coefficient_overflows",
        "wide_alpha_170", "alpha_150", "alpha_170", "alpha_1e-4",
        "alpha_1e-5", "cube_alpha_1e-5"])
def test_defect_matches_monomial_closed_form(name, k, b, alpha):
    d = trapezoid_defect(get_function(name), Interval(0.0, b), alpha)
    assert d.lhs == pytest.approx(monomial_defect(k, b, alpha), abs=1e-10)


def mp_defect(f, a: float, b: float, alpha: float) -> float:
    """D at 30 digits: the Beta(alpha, 1) form, with f's own expression
    evaluated in mpmath."""
    import mpmath

    with mpmath.workdps(30):
        lo, hi, al = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(alpha)
        h, ends = hi - lo, f.fn(lo) + f.fn(hi)
        return float(-0.5 * mpmath.quad(
            lambda u: al * u ** (al - 1) * (f.fn(lo + h * u)
                                            + f.fn(hi - h * u) - ends),
            [0, 0.5, 1]))


def allowed_errors(a: float, b: float, alpha: float, quad_tol: float,
                   exact: float) -> tuple[float, float]:
    """What each side may miss D by: the tolerance its integral is asked
    for (clamped to the engine's range), or the engine's roundoff floor
    50 eps int|integrand| where that is larger.  Both integrands keep one
    sign for convex f, so each floor is 50 eps |D| in units of D."""
    from fracineq.quadrature import _engine_tol

    coeff = (b - a) ** 2 / (2.0 * (alpha + 1.0))
    floor = 50.0 * math.ulp(1.0) * abs(exact)
    return (max(0.5 * _engine_tol(2.0 * quad_tol), floor),
            max(coeff * _engine_tol(quad_tol / coeff), floor))


@pytest.mark.parametrize("alpha", [1e-5, 0.05, 0.5, 1.0, 7.0, 170.0])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 3.0), (0.0, 100.0)])
@pytest.mark.parametrize("name", ["square", "cube", "quartic", "s_power_0.25",
                                  "shifted_square_1"])
def test_both_identity_sides_against_mpmath(name, a, b, alpha):
    pytest.importorskip("mpmath")
    f = get_function(name)
    exact = mp_defect(f, a, b, alpha)
    lhs_allowed, rhs_allowed = allowed_errors(a, b, alpha, 1e-10, exact)
    assert abs(trapezoid_defect(f, Interval(a, b), alpha).lhs
               - exact) <= lhs_allowed
    assert abs(defect_identity_rhs(f, Interval(a, b), alpha)
               - exact) <= rhs_allowed


def test_evaluators_reject_what_is_neither_callable_nor_a_test_function():
    with pytest.raises(DomainError, match="callable"):
        trapezoid_defect(5, Interval(0.0, 1.0), 0.5)
    with pytest.raises(DomainError, match="callable"):
        s_convex_sandwich(5, Interval(0.0, 1.0), 0.5)


@pytest.fixture
def adaptive_calls(monkeypatch):
    """The integrals hhbounds hands to the adaptive engine, in call order:
    its own, and the defect's through quadrature.beta_expectation."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(hhbounds, "integrate", counting)
    monkeypatch.setattr(quadrature, "integrate", counting)
    return calls


@pytest.mark.parametrize("name, a, b, alpha, quad_tol", [
    # f near 1e8: on the 101-node level the defect's level difference
    # 1.6e-12 plus even the exact sum's rounding term 6.3e-13 exceeds its
    # tolerance 2e-12; the adaptive fallback used to return 0 at such
    # small alpha
    ("quartic", 0.0, 100.0, 1e-5, 1e-12),
])
def test_fallback_meets_tol_where_the_rules_do_not(name, a, b, alpha,
                                                  quad_tol, adaptive_calls):
    pytest.importorskip("mpmath")
    f = get_function(name)
    exact = mp_defect(f, a, b, alpha)
    lhs_allowed, rhs_allowed = allowed_errors(a, b, alpha, quad_tol, exact)
    lhs = trapezoid_defect(f, Interval(a, b), alpha, quad_tol).lhs
    assert len(adaptive_calls) == 1
    rhs = defect_identity_rhs(f, Interval(a, b), alpha, quad_tol)
    assert abs(lhs - exact) <= lhs_allowed
    assert abs(rhs - exact) <= rhs_allowed


@pytest.mark.parametrize("name, a, b, alpha, quad_tol", [
    # f = t^2.25/c has an algebraic endpoint at 0: g carries u^2.25 and
    # (1-u)^2.25 terms and the rhs integrand a t^0.25 one
    ("s_power_0.25", 0.0, 2.0, 0.1, 1e-12),
    # the rounding terms stay below a tolerance 100 times looser than in
    # the fallback case above
    ("quartic", 0.0, 100.0, 1e-5, 1e-10),
    # f near 256: the worst-case rounding terms of both sides exceed their
    # tolerances, the exact sums' terms do not
    ("quartic", 0.5, 4.0, 0.6, 1e-12),
])
def test_ladder_meets_tol_without_the_adaptive_engine(name, a, b, alpha,
                                                      quad_tol,
                                                      adaptive_calls):
    pytest.importorskip("mpmath")
    f = get_function(name)
    exact = mp_defect(f, a, b, alpha)
    lhs_allowed, rhs_allowed = allowed_errors(a, b, alpha, quad_tol, exact)
    lhs = trapezoid_defect(f, Interval(a, b), alpha, quad_tol).lhs
    rhs = defect_identity_rhs(f, Interval(a, b), alpha, quad_tol)
    assert adaptive_calls == []
    assert abs(lhs - exact) <= lhs_allowed
    assert abs(rhs - exact) <= rhs_allowed


def test_rules_serve_scalar_only_callables(adaptive_calls):
    pytest.importorskip("mpmath")
    import mpmath

    def scalar_exp(t):
        # math.exp takes no array, so each node is evaluated on its own
        return mpmath.exp(t) if isinstance(t, mpmath.mpf) else math.exp(t)

    f = TestFunction("exp", scalar_exp, scalar_exp, ConvexityClass("convex"),
                     Interval(0.0, 2.0))
    for alpha in (0.3, 2.5):
        exact = mp_defect(f, 0.0, 2.0, alpha)
        assert trapezoid_defect(math.exp, Interval(0.0, 2.0),
                                alpha).lhs == pytest.approx(exact, abs=1e-10)
        assert defect_identity_rhs(f, Interval(0.0, 2.0),
                                   alpha) == pytest.approx(exact, abs=1e-10)
    assert adaptive_calls == []


def test_ladder_nodes_do_not_depend_on_alpha():
    # one ladder, built at import, serves every order: f is evaluated at
    # a + (b-a) x on the ladder's nodes whatever alpha is
    seen = []

    def square(t):
        seen.append(t)
        return t * t

    for alpha in (1e-5, 0.5, 2.0, 1000.0):
        trapezoid_defect(square, Interval(1.0, 3.0), alpha)
    arrays = [t for t in seen if not isinstance(t, float)]
    assert len(arrays) == 4
    for t in arrays:
        assert (t == 1.0 + 2.0 * TANH_SINH.nodes).all()


def test_identity_rhs_tiny_alpha_matches_closed_form():
    # int_0^1 t (1 - t^alpha) 4 dt scaled by (b-a)^2 / (2 (alpha+1)) is
    # 1e4 alpha / ((1+alpha)(alpha+2)); writing the integral as
    # E[V h(V)] - E[U^2 h(U)]/alpha cancels 5 of its 16 digits here
    alpha = 1e-5
    exact = 1e4 * alpha / ((1.0 + alpha) * (alpha + 2.0))
    got = defect_identity_rhs(SQUARE, Interval(0.0, 100.0), alpha, 1e-12)
    assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_orders_above_alpha_max_still_compute_where_gamma_is_not_formed():
    assert weight_entry("weight_int_power", 200.0, 0.5).holds
    assert weight_entry("weight_int_beta", 200.0, 0.5).holds
    assert BoundParams(alpha=200.0, s=1.0).alpha == 200.0
    rhs = defect_identity_rhs(SQUARE, UNIT, 200.0)
    # (b-a)^2/(alpha+1) int_0^1 2t(1-t^alpha) dt for f'' = 2
    assert rhs == pytest.approx(200.0 / (201.0 * 202.0), abs=1e-10)
    assert defect_bound_s_convex(SQUARE, UNIT, 200.0, 1.0) == pytest.approx(
        rhs, abs=1e-10)
    assert math.isfinite(classical_convex_bound(SQUARE, UNIT, 200.0))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_every_p_and_q_entry_point_rejects_non_finite_exponents(bad):
    # each evaluator shares the one p and the one q validator of BoundParams
    for call in (lambda: defect_bound_power_mean(SQUARE, UNIT, 0.5, 1.0, bad),
                 lambda: classical_power_mean_bound(SQUARE, UNIT, 0.5, bad),
                 lambda: classical_holder_bound(SQUARE, UNIT, 0.5, bad),
                 lambda: classical_concave_bound(SQUARE, UNIT, 0.5, bad),
                 lambda: weight_integral_report(0.5, 1.0, bad),
                 lambda: BoundParams(alpha=0.5, s=1.0, p=bad),
                 lambda: BoundParams(alpha=0.5, s=1.0, q=bad),
                 lambda: BoundParams(alpha=0.5, s=1.0, p=2.0, q=bad)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_every_weight_call_rejects_a_slack_that_is_not_finite_and_non_negative(
        bad):
    # a NaN or negative tol failed true identities, an infinite one passed
    # any kernel margin; tol shares the sweep slack's one validator
    for call in (lambda: weight_entry("weight_int_power", 0.5, 1.0, tol=bad),
                 lambda: weight_entry("weight_int_beta", 0.5, 1.0, tol=bad),
                 lambda: weight_entry("weight_int_plain", s=1.0, tol=bad),
                 lambda: weight_entry("holder_kernel_bound", 2.0, p=2.0,
                                      tol=bad),
                 lambda: weight_integral_report(0.5, 1.0, 2.0, tol=bad)):
        with pytest.raises(DomainError, match=r"^tol must be finite"):
            call()


def test_power_mean_refuses_a_missing_q_before_certifying(monkeypatch):
    from fracineq import funclib

    built = []
    real = funclib.cert_grid

    def counting(fn, domain):
        built.append(domain)
        return real(fn, domain)

    monkeypatch.setattr(funclib, "cert_grid", counting)
    with pytest.raises(DomainError,
                       match=r"bound_power_mean requires q >= 1 in params"):
        defect_bound_power_mean(SQUARE, UNIT, 0.5, 1.0, None)
    assert built == []
    # the same gate certifies once when q is given
    defect_bound_power_mean(SQUARE, UNIT, 0.5, 1.0, 2.0)
    assert built == [UNIT]


def test_bounds_at_alpha_1e17_are_positive_and_hold():
    # beta(alpha+2, 2) used to come out near 1: the weight identity failed
    # (rhs -0.83), the bounds were -1e-17, and power mean at q = 2 took
    # the square root of that and returned a complex number
    alpha = 1e17
    assert weight_entry("weight_int_beta", alpha, 1.0).holds
    lhs = abs(trapezoid_defect(SQUARE, UNIT, alpha).lhs)
    # (b-a)^2 alpha / ((alpha+1)(alpha+2)) for f'' = 2 at s = 1
    exact = 1.0 / alpha
    for bound in (defect_bound_s_convex(SQUARE, UNIT, alpha, 1.0),
                  defect_bound_power_mean(SQUARE, UNIT, alpha, 1.0, 1.0),
                  defect_bound_power_mean(SQUARE, UNIT, alpha, 1.0, 2.0)):
        assert isinstance(bound, float)
        assert bound == pytest.approx(exact, rel=1e-12)
        assert bound >= lhs


@pytest.mark.parametrize("p, alpha, rel", [(1e200, 1e110, 1e-12),
                                           (1e300, 1e10, 1e-9)])
def test_hoelder_kernel_past_the_doubles(p, alpha, rel):
    # alpha p + 1 overflows: beta(p+1, alpha p + 1) comes from its leading
    # asymptotic term, off by a factor 1 + O(1/alpha), instead of refusing
    # y = inf
    mpmath = pytest.importorskip("mpmath")
    from fracineq.hhbounds import _beta_root

    with mpmath.workdps(400):
        big_p = mpmath.mpf(p)
        log_b = mpmath.log(mpmath.beta(big_p + 1, mpmath.mpf(alpha) * big_p + 1))
        expected = float(mpmath.exp(log_b / big_p))
    assert _beta_root(p, alpha) == pytest.approx(expected, rel=rel)
    assert weight_entry("holder_kernel_bound", alpha, p=p).rhs == 0.0


def test_closed_forms_reject_orders_where_they_overflow():
    from fracineq.hhbounds import BOUND_ALPHA_MAX

    big = 1e154   # 4 (alpha+1)(alpha+2) overflows
    for call in (lambda: defect_bound_s_convex(SQUARE, UNIT, big, 1.0),
                 lambda: defect_bound_power_mean(SQUARE, UNIT, big, 1.0, 2.0),
                 lambda: classical_power_mean_bound(SQUARE, UNIT, big, 2.0),
                 lambda: weight_entry("weight_int_power", big, 1.0),
                 lambda: BoundParams(alpha=big, s=1.0)):
        with pytest.raises(DomainError, match="alpha"):
            call()
    assert defect_bound_power_mean(SQUARE, UNIT, BOUND_ALPHA_MAX, 1.0,
                                   2.0) > 0.0
    # the identity's two sides take any order
    for alpha in (big, 1e308, 1.7976931348623157e308):
        lhs = trapezoid_defect(SQUARE, UNIT, alpha).lhs
        rhs = defect_identity_rhs(SQUARE, UNIT, alpha)
        assert abs(lhs - rhs) <= 1e-15


def test_overflowing_scales_raise_clean_errors():
    from fracineq import IntegrandError

    wide = Interval(0.0, 1e300)
    with pytest.raises(IntegrandError, match="overflows"):
        trapezoid_defect(CUBE, wide, 1.0)
    with pytest.raises(DomainError, match="too wide"):
        defect_identity_rhs(LINEAR, wide, 1.0)
    with pytest.raises(DomainError, match="too wide"):
        defect_bound_s_convex(LINEAR, wide, 1.0, 1.0)
    # (b-a)^2 underflows to 0 on [0, 1e-300]: the rhs is 0, not 0/0
    assert defect_identity_rhs(SQUARE, Interval(0.0, 1e-300), 1e308) == 0.0


@pytest.mark.parametrize("call", [
    lambda f: trapezoid_defect(f, Interval(-1.0, 1.0), 0.5),
    lambda f: left_rl(f, 0.5, -1.0, 1.0),
], ids=["trapezoid_defect", "left_rl"])
def test_a_complex_value_of_f_is_an_integrand_error_naming_t(call):
    # t ** 2.5 of a negative Python float is complex, and float() of it
    # used to escape as a bare TypeError
    from fracineq import IntegrandError

    with pytest.raises(IntegrandError, match=r"non-real value .* t=-"):
        call(get_function("s_power_0.5"))


def test_a_type_error_of_f_itself_is_not_an_integrand_error():
    from fracineq.quadrature import _point_value

    def broken(t):
        raise TypeError("not a number")

    with pytest.raises(TypeError, match="not a number"):
        _point_value(broken, 0.5)


@pytest.mark.parametrize("call", [
    lambda fn: integrate(fn, Interval(0.0, 1.0)),
    lambda fn: _eval_grid(fn, np.linspace(0.0, 1.0, 5)),
], ids=["integrate", "eval_grid"])
def test_a_type_error_of_f_itself_propagates_from_the_engine_and_grid(call):
    # only float() of f's value is read as non-real; f's own TypeError is
    # a fault of f
    def broken(t):
        raise TypeError("not a number")

    with pytest.raises(TypeError, match="not a number"):
        call(broken)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, 0.5])
@pytest.mark.parametrize("call", [
    lambda tol: trapezoid_defect(SQUARE, UNIT, 0.5, quad_tol=tol),
    lambda tol: defect_identity_rhs(SQUARE, UNIT, 0.5, quad_tol=tol),
    lambda tol: s_convex_sandwich(SQUARE, UNIT, 1.0, quad_tol=tol),
    lambda tol: left_rl(SQUARE, 0.5, 0.0, 1.0, abs_tol=tol),
    lambda tol: right_rl(SQUARE, 0.5, 1.0, 0.0, abs_tol=tol),
], ids=["trapezoid_defect", "defect_identity_rhs", "s_convex_sandwich",
        "left_rl", "right_rl"])
def test_public_quadrature_tolerances_are_validated(call, tol):
    # a tolerance outside the engine's contract is refused, as integrate
    # refuses it, rather than clamped and reported back (quad_tol_used nan)
    with pytest.raises(DomainError, match="tol must lie in"):
        call(tol)


# ---------------------------------------------------------------------------
# the closed forms, each written as one function of (f, interval, params) as
# they stood before BoundCheck split them into factors and combine: the
# reference for the bits of BoundCheck.formula and of the classical bounds


def ref_curvature(f, t, q=1.0):
    return abs(float(f.d2(t))) ** q


def ref_holder_lead(iv, alpha, p):
    return (iv.b - iv.a) ** 2 / (alpha + 1.0) * hhbounds._beta_root(p, alpha)


def ref_power_mean_lead(iv, alpha):
    width2 = (iv.b - iv.a) ** 2
    lead = alpha * width2 / (4.0 * (alpha + 1.0) * (alpha + 2.0))
    if not math.isfinite(lead):
        lead = width2 * (alpha / (4.0 * (alpha + 1.0) * (alpha + 2.0)))
    return lead


def ref_s_convex(f, iv, bp):
    alpha, s = bp.alpha, bp.s
    second = ref_curvature(f, iv.a) + ref_curvature(f, iv.b)
    bracket = (alpha / ((s + 2.0) * (alpha + s + 2.0))
               + beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0))
    return (iv.b - iv.a) ** 2 / (2.0 * (alpha + 1.0)) * bracket * second


def ref_holder(f, iv, bp):
    av, bv = ref_curvature(f, iv.a, bp.q), ref_curvature(f, iv.b, bp.q)
    return (ref_holder_lead(iv, bp.alpha, bp.p)
            * ((av + bv) / (bp.s + 1.0)) ** (1.0 / bp.q))


def ref_power_mean(f, iv, bp):
    alpha, s, q = bp.alpha, bp.s, bp.q
    av, bv = ref_curvature(f, iv.a, q), ref_curvature(f, iv.b, q)
    w1 = (2.0 * alpha + 4.0) / ((s + 2.0) * (alpha + s + 2.0))
    w2 = ((beta(2.0, s + 1.0) - beta(alpha + 2.0, s + 1.0))
          * (2.0 * alpha + 4.0) / alpha)
    lead = ref_power_mean_lead(iv, alpha)
    return lead * ((av * w1 + bv * w2) ** (1.0 / q)
                   + (av * w2 + bv * w1) ** (1.0 / q))


def ref_s_concave(f, iv, bp):
    return (ref_holder_lead(iv, bp.alpha, bp.p)
            * 2.0 ** ((bp.s - 1.0) / bp.q) * ref_curvature(f, iv.midpoint))


REFERENCE_FORMULAS = {"bound_s_convex": ref_s_convex,
                      "bound_holder": ref_holder,
                      "bound_power_mean": ref_power_mean,
                      "bound_s_concave": ref_s_concave}


def ref_classical(f, iv, alpha, p, q):
    """The four classical bounds, in the order of CLASSICAL_BOUNDS."""
    av, bv = ref_curvature(f, iv.a), ref_curvature(f, iv.b)
    convex = ((iv.b - iv.a) ** 2 / (alpha + 1.0) * beta(2.0, alpha + 1.0)
              * (0.5 * (av + bv)))
    conj = p / (p - 1.0)
    av_p, bv_p = ref_curvature(f, iv.a, conj), ref_curvature(f, iv.b, conj)
    holder = (ref_holder_lead(iv, alpha, p)
              * (0.5 * (av_p + bv_p)) ** (1.0 / conj))
    av_q, bv_q = ref_curvature(f, iv.a, q), ref_curvature(f, iv.b, q)
    w1 = (2.0 * alpha + 4.0) / (3.0 * alpha + 9.0)
    w2 = (alpha + 5.0) / (3.0 * alpha + 9.0)
    power_mean = ref_power_mean_lead(iv, alpha) * (
        (w1 * av_q + w2 * bv_q) ** (1.0 / q)
        + (w2 * av_q + w1 * bv_q) ** (1.0 / q))
    concave = ref_holder_lead(iv, alpha, p) * ref_curvature(f, iv.midpoint)
    return convex, holder, power_mean, concave


CLASSICAL_BOUNDS = (
    lambda f, iv, alpha, p, q: classical_convex_bound(f, iv, alpha),
    lambda f, iv, alpha, p, q: classical_holder_bound(f, iv, alpha, p),
    lambda f, iv, alpha, p, q: classical_power_mean_bound(f, iv, alpha, q),
    lambda f, iv, alpha, p, q: classical_concave_bound(f, iv, alpha, p),
)

# (functions, intervals, alphas, s values, p values, q values)
FORMULA_GRIDS = {
    "readme": (("square", "cube", "s_power_0.5"), ("0,1", "0,2", "1,3"),
               (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
               (0.25, 0.5, 0.75, 1.0), (1.5, 2.0, 3.0, 5.0), (1.0, 2.0, 3.0)),
    "E": (("square", "cube", "quartic", "s_power_0.5", "linear"),
          ("0,1e6", "1e6,1000001", "3,1e6", "0,1e-9"), (0.5, 1.0, 2.0),
          (0.5, 1.0), (2.0,), (1.0, 2.0)),
    # alpha (b-a)^2 overflows here, and the power-mean lead takes its
    # fallback
    "overflow": (("square", "cube"), ("0,1e100",), (1e150,), (0.5, 1.0),
                 (2.0,), (1.0, 2.0)),
}


def bound_params(check, alpha, s, p_values, q_values):
    if check.q_from is None:
        return [BoundParams(alpha, s)]
    if check.q_from == "conjugate":
        return [BoundParams(alpha, s, p=p) for p in p_values]
    return [BoundParams(alpha, s, q=q) for q in q_values]


@pytest.mark.parametrize("grid", FORMULA_GRIDS.values(), ids=FORMULA_GRIDS)
def test_bound_formulas_keep_the_bits_of_the_one_piece_closed_forms(grid):
    functions, intervals, alphas, s_values, p_values, q_values = grid
    if intervals == ("0,1e100",):
        assert math.isinf(alphas[0] * 1e100 ** 2)
    compared = 0
    for name, text, alpha in product(functions, intervals, alphas):
        f, iv = get_function(name), Interval.parse(text)
        for check, s in product(hhbounds.BOUND_CHECKS, s_values):
            reference = REFERENCE_FORMULAS[check.check_id]
            for bp in bound_params(check, alpha, s, p_values, q_values):
                got = check.formula(f, iv, bp)
                assert got.hex() == reference(f, iv, bp).hex(), (
                    check.check_id, name, text, bp)
                assert math.isfinite(got)
                compared += 1
        for p, q in product(p_values, q_values):
            want = ref_classical(f, iv, alpha, p, q)
            got = [bound(f, iv, alpha, p, q) for bound in CLASSICAL_BOUNDS]
            assert [v.hex() for v in got] == [v.hex() for v in want], (
                name, text, alpha, p, q)
    assert compared > 0
