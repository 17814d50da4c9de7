import cmath
import math

import numpy as np
import pytest
import scipy.special as sp

from laplasym import (
    AmplitudeSpec,
    ConvergenceError,
    DomainError,
    SimplePole,
    Singularity,
    builtin_spec,
    measured_remainder,
    reference_value,
)

# Frozen 40-digit mpmath values.
I_UCHG_5 = 0.74431596655254799  # Gamma(1/2) U(1/2, 3/4, 5)
I_STRUVE_10 = 0.099074077088897098  # (pi/2) K_0(10)


def test_one_term_amplitude_closed_form():
    spec = builtin_spec("c0")
    for z in (3.0 + 1.0j, 10.0 * cmath.exp(0.4j * math.pi), 5.0 + 0j):
        res = reference_value(spec, z)
        assert res.value == pytest.approx(1.0 / z, rel=1e-13)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations > 0


def test_struve_identity_on_real_axis():
    # I(x) = (pi/2) K_0(x) with the Struve-minus-Bessel combination.
    spec = builtin_spec("struve_k0")
    for x in (5.0, 10.0, 20.0):
        expected = 0.5 * math.pi * (sp.struve(0, x) - sp.y0(x))
        assert reference_value(spec, x + 0j).value == pytest.approx(expected, rel=1e-10)
    assert reference_value(spec, 10.0 + 0j).value == pytest.approx(I_STRUVE_10, rel=1e-12)


def test_u_chg_frozen_value_and_two_precision_consistency():
    spec = builtin_spec("u_chg", a=0.5, b=0.75)
    assert reference_value(spec, 5.0 + 0j).value == pytest.approx(I_UCHG_5, rel=1e-12)
    v1 = reference_value(spec, 5.0 + 0j, tol=1e-9).value
    v2 = reference_value(spec, 5.0 + 0j, tol=1e-11).value
    assert abs(v1 - v2) <= 3e-9 * abs(v1)


@pytest.mark.parametrize(
    "name,params",
    [
        ("u_chg", dict(a=0.5, b=0.75)),
        ("struve_k0", {}),
        ("pole", dict(psi=0.1 * math.pi)),
        ("sqrt_branch", dict(psi=0.1 * math.pi)),
    ],
)
def test_two_precision_agreement(name, params):
    spec = builtin_spec(name, **params)
    z = 10.0 * cmath.exp(0.2j * math.pi)
    tol = 1e-9
    v_loose = reference_value(spec, z, tol=tol).value
    v_tight = reference_value(spec, z, tol=tol / 100.0).value
    assert abs(v_loose - v_tight) <= 3.0 * tol * abs(v_tight)


def test_linearity_under_coefficient_scaling():
    base = builtin_spec("pole", psi=0.2 * math.pi)
    c = 2.0 - 3.0j
    scaled = AmplitudeSpec(
        mu=base.mu,
        beta=base.beta,
        radius=base.radius,
        coeffs=lambda n: c * base.coeffs(n),
        evaluator=lambda t: c * base.evaluator(t),
        growth_A=abs(c) * base.growth_A,
        growth_sigma=base.growth_sigma,
        sector_alpha1=base.sector_alpha1,
        sector_alpha2=base.sector_alpha2,
        singularities=base.singularities,
    )
    z = 8.0 * cmath.exp(-0.25j * math.pi)
    v_base = reference_value(base, z).value
    v_scaled = reference_value(scaled, z).value
    assert v_scaled == pytest.approx(c * v_base, rel=1e-13)


def test_conjugation_symmetry():
    spec = builtin_spec("struve_k0")
    z = 12.0 * cmath.exp(0.35j * math.pi)
    a = reference_value(spec, z.conjugate()).value
    b = reference_value(spec, z).value.conjugate()
    assert a == pytest.approx(b, rel=1e-13)


def test_conjugated_coefficients_conjugate_the_value():
    # The mirror amplitude (all coefficients conjugated, singularity in the
    # first quadrant) evaluated at conj(z) must give conj(I(z)).
    psi = 0.15 * math.pi
    base = builtin_spec("pole", psi=psi)
    mirror = AmplitudeSpec(
        mu=base.mu,
        beta=base.beta,
        radius=base.radius,
        coeffs=lambda n: base.coeffs(n).conjugate(),
        evaluator=lambda t: base.evaluator(t.conjugate() if isinstance(t, complex) else t).conjugate(),
        growth_A=base.growth_A,
        growth_sigma=base.growth_sigma,
        sector_alpha1=base.sector_alpha2,
        sector_alpha2=base.sector_alpha1,
        singularities=(Singularity(rho=1.0, phi=psi, kind=SimplePole(residue=-1.0)),),
    )
    z = 9.0 * cmath.exp(0.3j * math.pi)
    assert reference_value(mirror, z.conjugate()).value == pytest.approx(
        reference_value(base, z).value.conjugate(), rel=1e-12
    )


def test_measured_remainder_exact_series():
    spec = builtin_spec("c0")
    for z in (5.0 + 0j, 20.0 * cmath.exp(0.45j * math.pi)):
        assert abs(measured_remainder(spec, z, 0.8)) <= 1e-12


def test_measured_remainder_struve_scale():
    # At x=10, theta=0 the remainder sits within a factor 101.5 of e^{-8}.
    spec = builtin_spec("struve_k0")
    rem = abs(measured_remainder(spec, 10.0 + 0j, 0.8))
    scale = math.exp(-8.0)
    assert scale / 101.5 <= rem <= scale * 101.5


def test_measured_remainder_pole_residue_scale():
    # e^{|z| cos(theta - psi)} |R| approaches 2 pi once the pole dominates.
    spec = builtin_spec("pole", psi=0.1 * math.pi)
    z = 20.0 * cmath.exp(0.45j * math.pi)
    rem = abs(measured_remainder(spec, z, 0.8))
    scaled = math.log10(rem) + 20.0 * math.cos(0.35 * math.pi) * math.log10(math.e)
    assert abs(scaled - math.log10(2.0 * math.pi)) <= 0.05


def test_preconditions():
    spec = builtin_spec("c0")
    with pytest.raises(DomainError):
        reference_value(spec, -2.0 + 0.5j)  # outside the sector
    with pytest.raises(DomainError):
        reference_value(spec, 5.0 + 0j, tol=-1.0)

    on_axis = AmplitudeSpec(
        mu=1.0,
        beta=1.0,
        radius=1.0,
        coeffs=lambda n: np.ones(n, dtype=complex),
        evaluator=lambda t: 1.0 / (1.0 - t),
        growth_A=10.0,
        growth_sigma=0.0,
        sector_alpha1=math.pi / 2,
        sector_alpha2=math.pi / 2,
        singularities=(Singularity(rho=1.0, phi=0.0, kind=SimplePole(residue=-1.0)),),
    )
    with pytest.raises(DomainError):
        reference_value(on_axis, 5.0 + 0j)


def test_unreachable_tolerance_raises():
    spec = builtin_spec("u_chg", a=0.5, b=0.75)
    with pytest.raises(ConvergenceError):
        reference_value(spec, 10.0 + 0j, tol=1e-30)
