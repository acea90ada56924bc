"""Defect, identity, sandwich, and bound evaluators against hand oracles."""

import math

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
    s_convex_sandwich,
    trapezoid_defect,
    weight_integral_report,
)
from fracineq.funclib import ConvexityClass

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
    d = trapezoid_defect(CUBE, Interval(0.0, 2.0), 0.75)
    coeff = gamma(d.alpha + 1.0) / (2.0 * d.interval.length ** d.alpha)
    rebuilt = 0.5 * (d.fa + d.fb) - coeff * (d.left_j + d.right_j)
    assert rebuilt == pytest.approx(d.lhs, abs=1e-12)


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


@pytest.mark.parametrize("alpha, s, p", [(0.25, 0.5, 2.0), (1.0, 1.0, 1.5),
                                          (2.5, 0.25, 3.0), (3.0, 0.75, 5.0)])
def test_weight_report_composes_entry_builders(alpha, s, p):
    from fracineq.hhbounds import (
        holder_kernel_bound,
        weight_int_beta,
        weight_int_plain,
        weight_int_power,
    )

    rep = weight_integral_report(alpha, s, p)
    singles = (weight_int_power(alpha, s), weight_int_beta(alpha, s),
               weight_int_plain(s), holder_kernel_bound(alpha, p))
    assert [e.check_id for e in rep.entries] == [
        "weight_int_power", "weight_int_beta", "weight_int_plain",
        "holder_kernel_bound"]
    for got, want in zip(rep.entries, singles):
        assert (got.check_id, got.lhs, got.rhs, got.margin, got.holds,
                got.in_validated_range) == (
            want.check_id, want.lhs, want.rhs, want.margin, want.holds,
            want.in_validated_range)
    assert rep.entries[3].in_validated_range == (alpha <= 1.0)


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
        BoundParams(alpha=1.0, s=1.0, p=1.0)
    with pytest.raises(DomainError):
        BoundParams(alpha=0.0, s=1.0)
    with pytest.raises(DomainError):
        BoundParams(alpha=1.0, s=0.0)
    with pytest.raises(DomainError):
        BoundParams(alpha=1.0, s=1.0, q=0.5)
    with pytest.raises(DomainError):
        defect_bound_holder(SQUARE, UNIT, BoundParams(1.0, 1.0, q=2.0))


def test_alpha_max_is_the_edge_of_gammas_range():
    from fracineq.hhbounds import ALPHA_MAX, defect_coefficient

    assert math.isfinite(gamma(ALPHA_MAX + 1.0))
    beyond = math.nextafter(ALPHA_MAX, math.inf)
    with pytest.raises(OverflowError):
        gamma(beyond + 1.0)
    assert math.isfinite(defect_coefficient(UNIT, ALPHA_MAX))
    for alpha in (beyond, 171.0, 200.0, 1000.0):
        with pytest.raises(DomainError):
            defect_coefficient(UNIT, alpha)
        with pytest.raises(DomainError):
            trapezoid_defect(SQUARE, UNIT, alpha)


@pytest.mark.parametrize("b, alpha", [(100.0, 170.0), (0.01, 162.0),
                                      (0.5, 170.0)],
                         ids=["power_overflows", "power_underflows",
                              "coefficient_overflows"])
def test_defect_rejects_normalisation_outside_double_range(b, alpha):
    from fracineq.hhbounds import defect_coefficient

    iv = Interval(0.0, b)
    with pytest.raises(DomainError):
        defect_coefficient(iv, alpha)
    with pytest.raises(DomainError):
        trapezoid_defect(SQUARE, iv, alpha)


def test_defect_coefficient_is_the_defects_normalisation():
    from fracineq.hhbounds import defect_coefficient

    iv = Interval(0.0, 10.0)
    assert defect_coefficient(iv, 170.0) == gamma(171.0) / (2.0 * 10.0 ** 170.0)
    d = trapezoid_defect(SQUARE, iv, 170.0)
    assert d.lhs == pytest.approx(defect_identity_rhs(SQUARE, iv, 170.0),
                                  abs=1e-8)


def test_orders_above_alpha_max_still_compute_where_gamma_is_not_formed():
    from fracineq.hhbounds import weight_int_beta, weight_int_power

    assert weight_int_power(200.0, 0.5).holds
    assert weight_int_beta(200.0, 0.5).holds
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
    from fracineq.hhbounds import holder_kernel_bound

    for call in (lambda: defect_bound_power_mean(SQUARE, UNIT, 0.5, 1.0, bad),
                 lambda: classical_power_mean_bound(SQUARE, UNIT, 0.5, bad),
                 lambda: classical_holder_bound(SQUARE, UNIT, 0.5, bad),
                 lambda: classical_concave_bound(SQUARE, UNIT, 0.5, bad),
                 lambda: holder_kernel_bound(0.5, bad),
                 lambda: BoundParams(alpha=0.5, s=1.0, p=bad),
                 lambda: BoundParams(alpha=0.5, s=1.0, q=bad)):
        with pytest.raises(DomainError):
            call()
