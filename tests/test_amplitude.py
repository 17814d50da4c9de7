import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplasym import (
    AmplitudeSpec,
    DomainError,
    SimplePole,
    Singularity,
    SingularityError,
    SqrtBranch,
    builtin_spec,
    evaluate_amplitude,
    pochhammer,
    series_value,
)
from laplasym.amplitude import GROWTH_MARGIN

CANONICAL = [
    ("u_chg", dict(a=0.5, b=0.75)),
    ("struve_k0", {}),
    ("pole", dict(psi=0.1 * math.pi)),
    ("pole", dict(psi=0.4 * math.pi)),
    ("sqrt_branch", dict(psi=0.1 * math.pi)),
    ("sqrt_branch", dict(psi=0.4 * math.pi)),
]


def test_pochhammer_values():
    assert pochhammer(3.7 + 2j, 0) == 1
    assert pochhammer(1.0, 5) == 120
    assert pochhammer(0.5, 3) == pytest.approx(15 / 8, rel=1e-15)


def test_pochhammer_negative_order_rejected():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


@settings(max_examples=200, deadline=None)
@given(
    st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=100),
)
def test_pochhammer_recurrence(a, n):
    assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


def test_builtin_coefficients():
    psi = 0.1 * math.pi
    pole = builtin_spec("pole", psi=psi)
    assert pole.coeffs(5)[0] == pytest.approx(cmath.exp(1j * psi), rel=1e-15)
    assert pole.coeffs(5)[4] == pytest.approx(cmath.exp(5j * psi), rel=1e-14)

    sq = builtin_spec("sqrt_branch", psi=psi)
    assert sq.coeffs(2)[1] == pytest.approx(0.5 * cmath.exp(1j * psi), rel=1e-15)

    uc = builtin_spec("u_chg", a=0.5, b=0.75)
    assert uc.coeffs(4)[3] == pytest.approx(-pochhammer(0.75, 3) / 6, rel=1e-14)

    sv = builtin_spec("struve_k0")
    assert sv.coeffs(3)[2] == pytest.approx(pochhammer(0.5, 2) / 2, rel=1e-14)
    assert sv.mu == 0.5 and sv.beta == 0.5


def test_builtin_evaluator_values():
    uc = builtin_spec("u_chg", a=0.5, b=0.75)
    assert evaluate_amplitude(uc, 1.0 + 0j) == pytest.approx(2.0 ** (-0.75), rel=1e-14)

    psi = 0.3
    pole = builtin_spec("pole", psi=psi)
    assert evaluate_amplitude(pole, 0j) == pytest.approx(cmath.exp(1j * psi), rel=1e-15)

    sv = builtin_spec("struve_k0")
    assert evaluate_amplitude(sv, 0j) == pytest.approx(1.0, rel=1e-15)
    assert evaluate_amplitude(sv, 3.0 + 0j) == pytest.approx(1 / math.sqrt(10), rel=1e-14)


@pytest.mark.parametrize("name,params", CANONICAL)
def test_coefficient_evaluator_consistency(name, params):
    # The truncated fractional-power series must reproduce the closed form
    # well inside the convergence disc.
    import numpy as np

    spec = builtin_spec(name, **params)
    rng = np.random.default_rng(42)
    for _ in range(20):
        radius = 0.05 + 0.45 * rng.uniform()
        ang = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
        t = radius * cmath.exp(1j * ang)
        f = evaluate_amplitude(spec, t)
        s = series_value(spec, t, 61)
        assert abs(s - f) < 1e-10 * (1.0 + abs(f))


@pytest.mark.parametrize("name,params", CANONICAL)
def test_growth_bound(name, params):
    import numpy as np

    spec = builtin_spec(name, **params)
    rng = np.random.default_rng(7)
    singular_angles = [s.phi for s in spec.singularities]
    singular_angles += [cmath.phase(p) for p in spec.exclusions]
    lo = -spec.sector_alpha1 + GROWTH_MARGIN
    hi = spec.sector_alpha2 - GROWTH_MARGIN
    checked = 0
    for _ in range(300):
        ang = rng.uniform(lo, hi)
        if any(abs(ang - sa) < GROWTH_MARGIN for sa in singular_angles):
            continue
        rr = 10.0 ** rng.uniform(-1.0, math.log10(50.0))
        t = rr * cmath.exp(1j * ang)
        assert abs(spec.evaluator(t)) <= spec.growth_A * math.exp(spec.growth_sigma * rr)
        checked += 1
    assert checked > 200


@pytest.mark.parametrize("name,params", CANONICAL)
def test_coefficient_series_converges_inside_radius(name, params):
    # Ratio decay of sum |c_n| r^((n+Re beta)/mu) for r < R.
    spec = builtin_spec(name, **params)
    r = 0.9 * spec.radius
    beta_re = complex(spec.beta).real
    c = spec.coeffs(101)

    def term(n):
        return abs(c[n]) * r ** ((n + beta_re) / spec.mu)

    assert term(100) < 1e-4
    assert term(100) < 0.01 * term(10)


def test_evaluate_near_singularity_rejected():
    pole = builtin_spec("pole", psi=0.25)
    t0 = pole.singularities[0].location
    with pytest.raises(SingularityError):
        evaluate_amplitude(pole, t0 * (1.0 + 1e-10))
    uc = builtin_spec("u_chg", a=0.5, b=0.75)
    with pytest.raises(SingularityError):
        evaluate_amplitude(uc, -1.0 + 1e-12j)


def test_builtin_validation():
    with pytest.raises(DomainError):
        builtin_spec("nope")
    with pytest.raises(DomainError):
        builtin_spec("u_chg", a=-1.0, b=0.5)
    with pytest.raises(DomainError):
        builtin_spec("pole", psi=0.0)
    with pytest.raises(DomainError):
        builtin_spec("pole", psi=math.pi / 2)
    with pytest.raises(DomainError):
        builtin_spec("struve_k0", psi=0.3)


def test_singularity_validation():
    with pytest.raises(DomainError):
        Singularity(rho=0.0, phi=0.1, kind=SqrtBranch())
    with pytest.raises(DomainError):
        Singularity(rho=1.0, phi=math.pi / 2, kind=SimplePole(residue=1.0))


def test_amplitude_spec_invariants():
    ok = builtin_spec("pole", psi=0.3)
    with pytest.raises(DomainError):
        AmplitudeSpec(
            mu=-1.0,
            beta=1.0,
            radius=1.0,
            coeffs=ok.coeffs,
            evaluator=ok.evaluator,
            growth_A=1.0,
            growth_sigma=0.0,
            sector_alpha1=math.pi / 2,
            sector_alpha2=math.pi / 2,
        )
    with pytest.raises(DomainError):
        AmplitudeSpec(
            mu=1.0,
            beta=-0.5,
            radius=1.0,
            coeffs=ok.coeffs,
            evaluator=ok.evaluator,
            growth_A=1.0,
            growth_sigma=0.0,
            sector_alpha1=math.pi / 2,
            sector_alpha2=math.pi / 2,
        )
    # singularity inside the convergence radius is inconsistent
    with pytest.raises(DomainError):
        AmplitudeSpec(
            mu=1.0,
            beta=1.0,
            radius=1.0,
            coeffs=ok.coeffs,
            evaluator=ok.evaluator,
            growth_A=1.0,
            growth_sigma=0.0,
            sector_alpha1=math.pi / 2,
            sector_alpha2=math.pi / 2,
            singularities=(Singularity(rho=0.5, phi=-0.3, kind=SqrtBranch()),),
        )


def _mp_binomial_series(a, sign, n):
    """sign^n (a)_n / n! from mpmath's rising factorial at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return complex(sign**n * mpmath.rf(mpmath.mpmathify(a), n) / mpmath.factorial(n))


def _mp_phase(psi, k):
    import mpmath

    with mpmath.workdps(30):
        return complex(mpmath.expj(mpmath.mpf(psi) * k))


COEFF_CLOSED_FORMS = [
    ("u_chg", dict(a=0.5, b=0.75), lambda n: _mp_binomial_series(0.75, -1, n)),
    (
        "u_chg",
        dict(a=0.5 + 0.3j, b=1.25 - 0.5j),
        lambda n: _mp_binomial_series(1.25 - 0.5j, -1, n),
    ),
    ("struve_k0", {}, lambda n: _mp_binomial_series(0.5, -1, n)),
    ("pole", dict(psi=0.45 * math.pi), lambda n: _mp_phase(0.45 * math.pi, n + 1)),
    (
        "sqrt_branch",
        dict(psi=0.4 * math.pi),
        lambda n: _mp_binomial_series(0.5, 1, n) * _mp_phase(0.4 * math.pi, n),
    ),
    ("c0", {}, lambda n: 1.0 if n == 0 else 0.0),
]


@pytest.mark.parametrize("name,params,closed_form", COEFF_CLOSED_FORMS)
def test_coeffs_match_pochhammer_closed_form(name, params, closed_form):
    # The running products of the coefficient ratios must not drift from the
    # closed form over the longest sums the expansions take (n* = 1280).
    spec = builtin_spec(name, **params)
    c = spec.coeffs(1281)
    assert c.shape == (1281,) and c.dtype == complex
    for n in range(1281):
        want = closed_form(n)
        assert abs(c[n] - want) <= 1e-13 * abs(want), n
    # A prefix request returns the same leading coefficients.
    assert np.array_equal(spec.coeffs(17), c[:17])


@pytest.mark.parametrize("name,params,_closed_form", COEFF_CLOSED_FORMS)
def test_coeffs_read_only_and_empty(name, params, _closed_form):
    spec = builtin_spec(name, **params)
    assert spec.coeffs(0).shape == (0,)
    c = spec.coeffs(5)
    assert not c.flags.writeable
    with pytest.raises(ValueError):
        c[0] = 2.0
