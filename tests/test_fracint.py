"""Riemann-Liouville operators: closed forms, reductions, symmetry."""

import math

import pytest

from fracineq import DomainError, Interval, gamma, integrate, left_rl, right_rl
from fracineq.funclib import builtin_catalog

# J_{0+}^{1/2} 1 (1) = 1/Gamma(1.5); frozen from the closed form
# x^alpha / Gamma(alpha+1), cross-checked by singular quadrature
INV_GAMMA_15 = 1.1283791670955126


def test_alpha_one_is_classical_integral():
    assert left_rl(lambda t: t, 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert right_rl(lambda t: t, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)


def test_constant_half_order():
    assert left_rl(lambda t: 1.0, 0.5, 0.0, 1.0) == pytest.approx(
        INV_GAMMA_15, abs=1e-10)
    assert right_rl(lambda t: 1.0, 0.5, 1.0, 0.0) == pytest.approx(
        INV_GAMMA_15, abs=1e-10)


def test_zero_integrand():
    for alpha in (0.25, 1.0, 2.5):
        assert left_rl(lambda t: 0.0, alpha, 0.0, 1.0) == 0.0


def test_reflection_symmetry():
    # J_{b-}^alpha f(a) = J_{a+}^alpha f(a+b-.) (b), here with f = 1 - t
    lhs = right_rl(lambda t: 1.0 - t, 0.5, 1.0, 0.0)
    rhs = left_rl(lambda t: t, 0.5, 0.0, 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("beta_exp", [0, 1, 2, 3])
def test_monomial_closed_form(alpha, beta_exp):
    # J_{a+}^alpha (t-a)^m (x) = Gamma(m+1)/Gamma(m+alpha+1) (x-a)^(alpha+m)
    a, x = 0.5, 2.0
    got = left_rl(lambda t: (t - a) ** beta_exp, alpha, a, x, abs_tol=1e-11)
    expected = (gamma(beta_exp + 1.0) / gamma(beta_exp + alpha + 1.0)
                * (x - a) ** (alpha + beta_exp))
    assert got == pytest.approx(expected, rel=1e-8)


def test_alpha_one_reduction_on_catalog_samples():
    iv = Interval(0.0, 2.0)
    for f in builtin_catalog()[:4]:
        direct = integrate(f.fn, iv, 1e-11).value
        assert left_rl(f, 1.0, iv.a, iv.b) == pytest.approx(direct, abs=1e-9)


def test_linearity_in_f():
    f = lambda t: t ** 2
    g = lambda t: 3.0 * t + 1.0
    combo = lambda t: 2.0 * f(t) + g(t)
    alpha = 0.75
    lhs = left_rl(combo, alpha, 0.0, 1.5)
    rhs = 2.0 * left_rl(f, alpha, 0.0, 1.5) + left_rl(g, alpha, 0.0, 1.5)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_positivity():
    # positive integrand, positive kernel, positive weights
    assert left_rl(lambda t: t ** 2 + 0.1, 0.5, 0.0, 1.0) >= 0.0
    assert right_rl(lambda t: t ** 2 + 0.1, 0.3, 1.0, 0.0) >= 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        left_rl(lambda t: t, 1.0, 1.0, 1.0)     # x == a
    with pytest.raises(DomainError):
        left_rl(lambda t: t, 1.0, 2.0, 1.0)     # x < a
    with pytest.raises(DomainError):
        right_rl(lambda t: t, 1.0, 0.0, 0.0)    # x == b
    with pytest.raises(DomainError):
        left_rl(lambda t: t, 0.0, 0.0, 1.0)     # alpha = 0 not an order value
    with pytest.raises(DomainError):
        left_rl(lambda t: t, -0.5, 0.0, 1.0)


def test_order_beyond_gammas_range_is_a_domain_error():
    # gamma(172) overflows; both operators reject the order cleanly
    with pytest.raises(DomainError, match="Gamma"):
        left_rl(lambda t: t, 172.0, 0.0, 1.0)
    with pytest.raises(DomainError, match="Gamma"):
        right_rl(lambda t: t, 172.0, 1.0, 0.0)


def test_kernel_power_overflow_is_a_domain_error():
    # Gamma(170) is finite, but the kernel (x - t)^169 overflows on [0, 100]
    where = r"alpha=170.0 on \[0.0, 100.0\]"
    with pytest.raises(DomainError, match=where):
        left_rl(lambda t: t, 170.0, 0.0, 100.0)
    with pytest.raises(DomainError, match=where):
        right_rl(lambda t: t, 170.0, 100.0, 0.0)
    # on [0, 10] it stays finite: J_{0+}^170 t (10) = 10^171 / Gamma(172)
    exact = math.exp(171.0 * math.log(10.0) - math.lgamma(172.0))
    assert left_rl(lambda t: t, 170.0, 0.0, 10.0) == pytest.approx(exact,
                                                                   rel=1e-9)


def test_accepts_test_function_objects():
    sq = builtin_catalog()[2]
    assert sq.name == "square"
    assert left_rl(sq, 1.0, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_check_alpha_requires_finite_positive_order():
    from fracineq.fracint import check_alpha

    assert check_alpha(1) == 1.0
    # no upper limit: an operation that forms Gamma of the order checks
    # its own range
    assert check_alpha(1000.0) == 1000.0
    for alpha in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            check_alpha(alpha)
        with pytest.raises(DomainError):
            left_rl(lambda t: t, alpha, 0.0, 1.0)


@pytest.mark.parametrize("alpha", [1e-5, 1e-4])
def test_tiny_orders_match_closed_forms(alpha):
    # J_{0+}^alpha t^2 (1) and J_{1-}^alpha (1-t)^2 (0) are
    # Gamma(3)/Gamma(3+alpha); with f vanishing at x instead,
    # J_{1-}^alpha t^2 (0) = J_{0+}^alpha (1-t)^2 (1) = 1/((alpha+2) Gamma(alpha))
    at_x = 2.0 / math.gamma(3.0 + alpha)
    zero_at_x = alpha / ((alpha + 2.0) * math.gamma(alpha + 1.0))
    assert left_rl(lambda t: t * t, alpha, 0.0, 1.0) == pytest.approx(
        at_x, rel=0.0, abs=1e-10)
    assert right_rl(lambda t: (1.0 - t) ** 2, alpha, 1.0, 0.0) == pytest.approx(
        at_x, rel=0.0, abs=1e-10)
    assert right_rl(lambda t: t * t, alpha, 1.0, 0.0) == pytest.approx(
        zero_at_x, rel=0.0, abs=1e-10)
    assert left_rl(lambda t: (1.0 - t) ** 2, alpha, 0.0, 1.0) == pytest.approx(
        zero_at_x, rel=0.0, abs=1e-10)
