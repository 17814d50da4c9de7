import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from laplasym import (
    DomainError,
    bound_a1,
    bound_a2,
    gamma_complete,
    gamma_complete_log,
    gamma_lower,
    gamma_lower_log,
    gamma_upper,
    gamma_upper_log,
)
from laplasym.incgamma import (
    _lower_series_log,
    _upper_cf_log,
    gamma_lower_logc,
    gamma_upper_logc,
)

GRID_A = [
    base + shift for base in (0.5, 1.0, 2.5, 10.0) for shift in (0.0, 1j, -1j, 4j, -4j)
]
GRID_CHI = (0.1, 1.0, 5.0, 20.0, 50.0)

# Frozen 40-digit mpmath values (independent oracle).
GAMMA_UPPER_03_2J_5 = -0.0017392724304706257 - 0.000702940025710367j
GAMMA_LOWER_25_1J_37 = 0.77942362765987904 + 0.45794751919000042j
GAMMA_UPPER_13_2J_5 = -0.010003205582091846 - 0.0045325114035641346j
ABS_GAMMA_LOWER_4_4J_3 = 1.0683662450601604


def _quad13(f, a: float, b: float, part: int) -> float:
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, a, b, args=(part,), epsabs=1e-15, epsrel=1e-13, limit=300)
    return val


def quad_oracle_upper(a: complex, chi: float) -> complex:
    """Brute-force adaptive quadrature of the defining tail integral."""

    def f(t, part):
        v = cmath.exp(-t + (a - 1.0) * cmath.log(t))
        return v.real if part == 0 else v.imag

    upper = chi + 60.0 + 5.0 * abs(a)
    return complex(_quad13(f, chi, upper, 0), _quad13(f, chi, upper, 1))


def quad_oracle_lower(a: complex, chi: float) -> complex:
    def f(t, part):
        v = cmath.exp(-t + (a - 1.0) * cmath.log(t))
        return v.real if part == 0 else v.imag

    return complex(_quad13(f, 0.0, chi, 0), _quad13(f, 0.0, chi, 1))


def upper_recurrence_integer(n: int, chi: float) -> float:
    """Gamma(n+1, chi) = n! e^-chi sum_{k<=n} chi^k/k!, exact finite recurrence."""
    s = sum(chi**k / math.factorial(k) for k in range(n + 1))
    return math.factorial(n) * math.exp(-chi) * s


def test_gamma_complete_classics():
    assert gamma_complete(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_complete(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_complete(6.0) == pytest.approx(120.0, rel=1e-13)


def test_gamma_complete_recurrence_consistency():
    for a in (1.5 + 2j, 0.2 - 3j, 7.5 + 0.5j, -2.5 + 1j):
        assert gamma_complete(a + 1.0) == pytest.approx(a * gamma_complete(a), rel=1e-12)


def test_gamma_complete_reflection_consistency():
    for a in (0.3 + 0.7j, -1.2 + 2.5j, 0.25):
        lhs = gamma_complete(a) * gamma_complete(1.0 - a)
        rhs = math.pi / cmath.sin(math.pi * a)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gamma_complete_poles_rejected():
    for a in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma_complete(a)


def test_gamma_complete_log_large_arguments():
    # 13-significant-digit contract exercised where the plain value overflows.
    for a in (150.0, 200.0, 180.5):
        logmod, phase = gamma_complete_log(a)
        assert logmod == pytest.approx(math.lgamma(a), rel=1e-13)
        assert phase == 0.0
    logmod, phase = gamma_complete_log(50 + 50j)
    lg_next = gamma_complete_log(51 + 50j)
    # recurrence in log space: log|Gamma(a+1)| = log|a| + log|Gamma(a)|
    assert lg_next[0] == pytest.approx(logmod + math.log(abs(50 + 50j)), rel=1e-13)


def test_gamma_lower_closed_forms():
    for chi in (0.3, 1.0, 4.2):
        assert gamma_lower(1.0, chi) == pytest.approx(1.0 - math.exp(-chi), rel=1e-13)
    # leading small-chi behavior gamma(a, chi) ~ chi^a / a
    a = 1.75
    chi = 1e-8
    assert gamma_lower(a, chi) == pytest.approx(chi**a / a, rel=1e-7)


def test_gamma_upper_closed_forms():
    for chi in (0.5, 1.0, 7.0):
        assert gamma_upper(1.0, chi) == pytest.approx(math.exp(-chi), rel=1e-13)
        assert gamma_upper(2.0, chi) == pytest.approx((1.0 + chi) * math.exp(-chi), rel=1e-13)


def test_gamma_frozen_oracle_values():
    assert gamma_upper(0.3 + 2j, 5.0) == pytest.approx(GAMMA_UPPER_03_2J_5, rel=1e-12)
    assert gamma_lower(2.5 + 1j, 3.7) == pytest.approx(GAMMA_LOWER_25_1J_37, rel=1e-12)


def test_gamma_against_live_quadrature_oracle():
    for a, chi in [(0.3 + 2j, 5.0), (1.3 + 2j, 5.0), (2.0 - 1.5j, 8.0)]:
        assert gamma_upper(a, chi) == pytest.approx(quad_oracle_upper(a, chi), rel=1e-10)
    for a, chi in [(2.5 + 1j, 3.7), (4.0 + 4j, 3.0)]:
        assert gamma_lower(a, chi) == pytest.approx(quad_oracle_lower(a, chi), rel=1e-10)


def test_complement_identity_grid():
    for a in GRID_A:
        g = gamma_complete(a)
        for chi in GRID_CHI:
            total = gamma_lower(a, chi) + gamma_upper(a, chi)
            assert abs(total - g) <= 1e-12 * abs(g)


def test_recurrence_grid():
    for a in GRID_A:
        for chi in GRID_CHI:
            lhs = gamma_upper(a + 1.0, chi)
            rhs = a * gamma_upper(a, chi) + cmath.exp(a * math.log(chi) - chi)
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_dual_route_series_plus_cf():
    # The series for the lower function and the continued fraction for the
    # upper one are independent algorithms; where the fraction is in its
    # stability region their sum must reproduce the complete gamma.
    for a in GRID_A:
        for chi in GRID_CHI:
            if chi < complex(a).real + 1.0:
                continue
            total = cmath.exp(_lower_series_log(a, chi)) + cmath.exp(_upper_cf_log(a, chi))
            g = gamma_complete(a)
            assert abs(total - g) <= 1e-12 * abs(g)


def test_log_variants_consistent_with_values():
    for a, chi in [(2.5 + 1j, 3.7), (0.3 + 2j, 5.0), (10.0, 20.0)]:
        lm, ph = gamma_lower_log(a, chi)
        assert cmath.rect(math.exp(lm), ph) == pytest.approx(gamma_lower(a, chi), rel=1e-12)
        lm, ph = gamma_upper_log(a, chi)
        assert cmath.rect(math.exp(lm), ph) == pytest.approx(gamma_upper(a, chi), rel=1e-12)


def test_log_variant_survives_overflow_scale():
    # Gamma(120, 100) overflows as a plain double; the log form must not.
    logmod, _ = gamma_upper_log(120.0, 100.0)
    assert 400.0 < logmod < 600.0


@pytest.mark.parametrize("a,chi", [(300.0, 1280.0), (172.0, 400.0), (200.5 + 1j, 150.0)])
def test_log_variants_beyond_gamma_overflow_against_mpmath(a, chi):
    # Gamma(a) overflows a double for Re(a) > 171; the complement identity
    # must form Gamma(a, chi)/Gamma(a) (or gamma/Gamma) in log space.
    import mpmath

    with mpmath.workdps(40):
        want_lower = complex(mpmath.log(mpmath.gammainc(a, 0, chi)))
        want_upper = complex(mpmath.log(mpmath.gammainc(a, chi)))
    for got, want in ((gamma_lower_logc(a, chi), want_lower), (gamma_upper_logc(a, chi), want_upper)):
        diff = got - want
        diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
        # An absolute log error is the relative error of the value.
        assert abs(diff) <= 1e-15 * abs(want)


def test_positivity_and_monotonicity_in_chi():
    for a in (0.5, 2.0, 9.5):
        values = [gamma_lower(a, chi).real for chi in (0.5, 1.0, 2.0, 5.0, 12.0)]
        assert all(v > 0 for v in values)
        assert all(b > v for v, b in zip(values, values[1:]))


def test_bound_a1_examples():
    assert bound_a1(0.0, 1.0) == pytest.approx(2 * math.exp(-1.0), rel=1e-14)
    assert abs(gamma_upper(1.0, 1.0)) <= bound_a1(0.0, 1.0)

    b = bound_a1(0.3 + 2j, 5.0)
    assert b == pytest.approx(2 * math.exp(-5.0) * 5.0**1.3, rel=1e-13)
    assert abs(GAMMA_UPPER_13_2J_5) <= b

    b10 = bound_a1(10.0, 10.0)
    assert b10 == pytest.approx(2 * math.exp(-10.0) * 10.0**11, rel=1e-13)
    assert upper_recurrence_integer(10, 10.0) <= b10
    assert gamma_upper(11.0, 10.0).real == pytest.approx(upper_recurrence_integer(10, 10.0), rel=1e-12)


def test_bound_a2_examples():
    assert bound_a2(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert gamma_lower(2.0, 1.0).real == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)
    assert abs(gamma_lower(2.0, 1.0)) <= bound_a2(1.0, 1.0)

    b = bound_a2(5.0, 2.0)
    assert b == pytest.approx(math.exp(-2.0) * 2.0**6, rel=1e-13)
    gamma_6_2 = math.factorial(5) - upper_recurrence_integer(5, 2.0)
    assert gamma_6_2 <= b
    assert gamma_lower(6.0, 2.0).real == pytest.approx(gamma_6_2, rel=1e-12)

    b34 = bound_a2(3 + 4j, 3.0)
    assert b34 == pytest.approx(math.exp(-3.0) * 3.0**4, rel=1e-13)
    assert ABS_GAMMA_LOWER_4_4J_3 <= b34


def test_bounds_domain_errors():
    with pytest.raises(DomainError):
        bound_a1(-1.0 - 1e-9, 2.0)
    with pytest.raises(DomainError):
        bound_a1(0.5, 0.9)
    with pytest.raises(DomainError):
        bound_a1(5.0, 4.0)
    with pytest.raises(DomainError):
        bound_a2(1.0, 1.5)
    with pytest.raises(DomainError):
        bound_a2(1.0, 0.0)


def test_preconditions():
    with pytest.raises(DomainError):
        gamma_lower(-0.5, 1.0)
    with pytest.raises(DomainError):
        gamma_lower(1.0, 0.0)
    with pytest.raises(DomainError):
        gamma_upper(1.0, -2.0)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=20.0),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=0.1, max_value=40.0),
)
def test_recurrence_property(re_a, im_a, chi):
    a = complex(re_a, im_a)
    lhs = gamma_upper(a + 1.0, chi)
    rhs = a * gamma_upper(a, chi) + cmath.exp(a * math.log(chi) - chi)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
