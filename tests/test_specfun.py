"""Gamma/Beta accuracy, properties, and domain errors."""

import math

import numpy as np
import pytest

from fracineq import (DomainError, Interval, beta, gamma, integrate, log_beta,
                      log_gamma)

# oracle for gamma(0.5): numeric integration of the defining integral
# int_0^inf e^-u u^-1/2 du (split u = w^2 on [0,1] + tail to 60, bound
# < 1e-26), run before the build; agrees with sqrt(pi) to 20 digits.
GAMMA_HALF = 1.772453850905516


@pytest.mark.parametrize("x, expected", [
    (1.0, 1.0),
    (5.0, 24.0),            # Gamma(n+1) = n!
    (0.5, GAMMA_HALF),
    (2.0, 1.0),
    (6.0, 120.0),
])
def test_gamma_known_values(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x, y, expected", [
    (2.0, 2.0, 1.0 / 6.0),      # int_0^1 t(1-t) dt
    (1.0, 1.0, 1.0),
    (3.0, 3.0, 1.0 / 30.0),     # derived: quadrature of t^2 (1-t)^2 = 1/30
])
def test_beta_known_values(x, y, expected):
    assert beta(x, y) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
def test_gamma_domain_errors(bad):
    with pytest.raises(DomainError):
        gamma(bad)


def test_beta_domain_errors():
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, -2.0)


def test_gamma_matches_stdlib_reference():
    # math.gamma is an independent C implementation
    rng = np.random.default_rng(91101)
    xs = np.concatenate([rng.uniform(1e-6, 1.0, 300),
                         rng.uniform(1.0, 170.0, 300)])
    for x in xs:
        assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)


def test_gamma_recurrence_1000_random():
    # Gamma(x+1) = x Gamma(x) on (0, 100], 1e-12 relative
    rng = np.random.default_rng(20260810)
    xs = rng.uniform(1e-6, 100.0, 1000)
    for x in xs:
        x = float(x)
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_beta_symmetry_1000_random():
    rng = np.random.default_rng(20260811)
    pairs = rng.uniform(1e-3, 50.0, size=(1000, 2))
    for x, y in pairs:
        assert beta(float(x), float(y)) == pytest.approx(
            beta(float(y), float(x)), rel=1e-12)


def _beta_by_quadrature(x: float, y: float) -> float:
    """Independent route: integrate t^(x-1)(1-t)^(y-1) on the adaptive
    engine, splitting at 1/2 when both endpoints are singular.  A singular
    end is removed by the substitution v = t^x (w = (1-t)^y at the right
    end), which leaves the bounded integrand (1-t)^(y-1)/x (t^(x-1)/y)
    with t = v^(1/x) (1-t = w^(1/y)), so the kernel is evaluated from the
    exact endpoint distance."""

    def left(v: float) -> float:
        return (1.0 - v ** (1.0 / x)) ** (y - 1.0) / x

    def right(w: float) -> float:
        return (1.0 - w ** (1.0 / y)) ** (x - 1.0) / y

    left_sing = x < 1.0
    right_sing = y < 1.0
    if left_sing and right_sing:
        return (integrate(left, Interval(0.0, 0.5 ** x), 1e-11).value
                + integrate(right, Interval(0.0, 0.5 ** y), 1e-11).value)
    if left_sing:
        return integrate(left, Interval(0.0, 1.0), 1e-11).value
    if right_sing:
        return integrate(right, Interval(0.0, 1.0), 1e-11).value
    return integrate(lambda t: t ** (x - 1.0) * (1.0 - t) ** (y - 1.0),
                     Interval(0.0, 1.0), 1e-11).value


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.5, 10.0])
@pytest.mark.parametrize("y", [0.25, 0.75, 3.0, 10.0])
def test_beta_consistent_with_defining_integral(x, y):
    assert beta(x, y) == pytest.approx(_beta_by_quadrature(x, y), abs=1e-9)


def test_gamma_overflow_edge():
    # 170.6243769563027 is the largest x with a finite Gamma(x + 1)
    edge = 170.6243769563027
    assert math.isfinite(gamma(edge + 1.0))
    with pytest.raises(OverflowError):
        gamma(math.nextafter(edge, math.inf) + 1.0)


def test_beta_survives_large_arguments():
    # log route keeps beta(p+1, alpha*p+1) finite and positive at p = 20
    val = beta(21.0, 61.0)
    assert 0.0 < val < 1e-18
    assert math.isfinite(log_gamma(300.0))


def test_log_gamma_memo_is_exact_and_bounded():
    from fracineq import specfun

    cache = specfun._log_gamma
    cache.cache_clear()

    def fresh(x):
        # the unmemoised evaluation
        if x < 0.5:
            return specfun._log_gamma_core(x + 1.0) - math.log(x)
        return specfun._log_gamma_core(x)

    for x in (0.05, 0.5, 1.25, 7.0, 171.0):
        assert log_gamma(x) == fresh(x)
        assert log_gamma(x) == fresh(x)      # served from the cache
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 5, 5)
    xs = [1.0 + k / 64.0 for k in range(info.maxsize + 100)]
    assert [log_gamma(x) for x in xs] == [fresh(x) for x in xs]
    assert cache.cache_info().currsize <= cache.cache_info().maxsize == 4096
    with pytest.raises(DomainError):
        log_gamma(math.nan)


def test_log_beta_memo_is_exact_and_bounded():
    from fracineq import specfun

    cache = specfun._log_beta
    cache.cache_clear()

    def fresh(x, y):
        # the unmemoised evaluation
        if max(x, y) < specfun._STIRLING_MIN:
            return log_gamma(x) + log_gamma(y) - log_gamma(x + y)
        small, large = sorted((x, y))
        return log_gamma(small) + specfun._log_gamma_ratio(large, small)

    for x, y in ((0.5, 2.0), (1.25, 19.9), (2.0, 1.25), (3.0, 1e17),
                 (1e300, 0.5)):
        assert log_beta(x, y) == fresh(x, y)
        assert log_beta(x, y) == fresh(x, y)      # served from the cache
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 5, 5)
    pairs = [(1.0 + k / 64.0, 2.5) for k in range(info.maxsize + 100)]
    assert [log_beta(x, y) for x, y in pairs] == [fresh(x, y)
                                                  for x, y in pairs]
    assert cache.cache_info().currsize == cache.cache_info().maxsize == 4096


def test_log_beta_refuses_bad_arguments_on_every_call():
    from fracineq import specfun

    specfun._log_beta.cache_clear()
    for x, y in ((math.nan, 1.0), (1.0, 0.0), (-1.0, 2.0), (1.0, math.inf)):
        for _ in range(2):
            with pytest.raises(DomainError):
                log_beta(x, y)
            with pytest.raises(DomainError):
                beta(x, y)
    # refused before the cache: never looked up, never stored
    info = specfun._log_beta.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_log_beta_below_stirling_range_keeps_its_bits():
    # the sweeps' beta arguments all lie here; their reports must not move
    from fracineq import specfun

    rng = np.random.default_rng(20261018)
    for x, y in rng.uniform(1e-3, specfun._STIRLING_MIN, size=(300, 2)):
        x, y = float(x), float(y)
        assert log_beta(x, y) == log_gamma(x) + log_gamma(y) - log_gamma(x + y)


@pytest.mark.parametrize("x", [1e2, 3e2, 1e3, 1e5, 1e8, 1e12, 1e17, 1e30,
                               1e50, 1e100, 1e150, 1e200, 1e300])
def test_log_beta_matches_mpmath_at_large_arguments(x):
    # log Gamma(x) - log Gamma(x+y) used to cancel: beta(1e17+2, 2) was
    # 1e34 times too large.  The reference holds 30 digits beyond the
    # log10(x) that x + y itself needs.
    mpmath = pytest.importorskip("mpmath")
    for y in (1e-3, 0.5, 1.25, 2.0, 3.5, 10.0, 19.9, 50.0, 1e3):
        with mpmath.workdps(30 + int(math.log10(x))):
            ref = mpmath.log(mpmath.beta(mpmath.mpf(x), mpmath.mpf(y)))
            tol = 4e-15 * max(1.0, abs(float(ref)))
            assert float(abs(mpmath.mpf(log_beta(x, y)) - ref)) <= tol, (x, y)
            assert log_beta(y, x) == log_beta(x, y)
            if abs(ref) < 700.0:
                # an absolute error in the log is a relative one in beta
                assert beta(x, y) == pytest.approx(float(mpmath.exp(ref)),
                                                   rel=tol), (x, y)
