import cmath
import math
from collections import Counter

import numpy as np
import pytest

from laplasym import (
    AmplitudeSpec,
    DomainError,
    EvalPoint,
    SimplePole,
    Singularity,
    SqrtBranch,
    builtin_spec,
    gamma_lower,
    gamma_upper,
    hadamard_sum,
    pochhammer,
    reference_value,
    remainder_envelope,
    significance_threshold,
    singularity_contribution,
    tail_integral_J,
    truncation_index,
    upsilon,
    watson_sum,
)
from laplasym.incgamma import gamma_lower_logc

R = 0.8


def test_truncation_index_examples():
    assert truncation_index(1.0, 1.0, 0.8, 20.0) == 16
    assert truncation_index(0.5, 0.5, 0.8, 10.0) == 4
    assert truncation_index(1.0, 0.5, 0.8, 20.0) == 16
    # negative formula value clamps to zero
    assert truncation_index(1.0, 5.0, 0.1, 0.1) == 0


def test_truncation_index_preconditions():
    with pytest.raises(DomainError):
        truncation_index(0.0, 1.0, 0.8, 5.0)
    with pytest.raises(DomainError):
        truncation_index(1.0, -1.0, 0.8, 5.0)
    with pytest.raises(DomainError):
        truncation_index(1.0, 1.0, 0.8, 0.0)


def test_watson_one_term_amplitude_is_exact():
    spec = builtin_spec("c0")
    for z in (4.0 + 0j, 10.0 * cmath.exp(0.3j * math.pi), 7.0 - 2.0j):
        ws = watson_sum(spec, z, R)
        assert ws.value == pytest.approx(1.0 / z, rel=1e-14)


def test_watson_terms_match_u_chg_display():
    # I(z) = Gamma(a) U(a, a-b+1, z), so each term carries Gamma(n+a) =
    # Gamma(a) (a)_n relative to the plain U expansion.
    spec = builtin_spec("u_chg", a=0.5, b=0.75)
    z = 10.0 + 0j
    ws = watson_sum(spec, z, R)
    assert ws.n_star == 8
    gamma_a = math.gamma(0.5)
    for n, term in enumerate(ws.terms):
        explicit = (
            gamma_a
            * (-1) ** n
            * pochhammer(0.5, n)
            * pochhammer(0.75, n)
            / math.factorial(n)
            * z ** (-n - 0.5)
        )
        assert term == pytest.approx(explicit, rel=1e-13)


def test_watson_terms_match_struve_display():
    spec = builtin_spec("struve_k0")
    z = 10.0 + 0j
    ws = watson_sum(spec, z, R)
    assert ws.n_star == 4
    for n, term in enumerate(ws.terms):
        explicit = (-1) ** n * pochhammer(0.5, n) ** 2 * 0.5 / (z / 2) ** (2 * n + 1)
        assert term == pytest.approx(explicit, rel=1e-13)


def test_watson_value_reconstructs_from_terms():
    spec = builtin_spec("u_chg", a=0.5, b=0.75)
    ws = watson_sum(spec, 20.0 * cmath.exp(0.25j * math.pi), R)
    fsum = complex(math.fsum(t.real for t in ws.terms), math.fsum(t.imag for t in ws.terms))
    scale = sum(abs(t) for t in ws.terms)
    assert abs(ws.value - fsum) <= 1e-15 * scale


def test_watson_sector_and_radius_preconditions():
    spec = builtin_spec("struve_k0")
    with pytest.raises(DomainError):
        watson_sum(spec, -3.0 + 0.1j, R)
    with pytest.raises(DomainError):
        watson_sum(spec, 5.0 + 0j, 1.2)


def test_conjugation_symmetry_exact_for_real_coefficients():
    for name, params in [("u_chg", dict(a=0.5, b=0.75)), ("struve_k0", {})]:
        spec = builtin_spec(name, **params)
        for z in (10.0 * cmath.exp(0.3j * math.pi), 5.0 * cmath.exp(0.45j * math.pi)):
            assert watson_sum(spec, z.conjugate(), R).value == watson_sum(spec, z, R).value.conjugate()


def test_hadamard_one_term_closed_form():
    spec = builtin_spec("c0")
    z = 12.0 * cmath.exp(0.2j * math.pi)
    h = hadamard_sum(spec, z, R, 40)
    assert h == pytest.approx((1.0 - math.exp(-R * 12.0)) / z, rel=1e-14)


def test_hadamard_limits_to_watson_for_large_rx():
    # gamma((n+beta)/mu, r|z|) -> Gamma((n+beta)/mu) termwise as r|z| -> inf.
    spec = builtin_spec("struve_k0")
    z = 500.0 + 0j
    n_terms = 30
    h = hadamard_sum(spec, z, R, n_terms)
    ws_terms = watson_sum(spec, z, R).terms[:n_terms]
    assert h == pytest.approx(sum(ws_terms), rel=1e-12)


def test_split_identity():
    # Truncated Watson sum minus its upper-gamma correction equals the head
    # of the Hadamard sum.
    spec = builtin_spec("u_chg", a=0.5, b=0.75)
    z = 10.0 * cmath.exp(0.1j * math.pi)
    x = abs(z)
    log_z = complex(math.log(x), cmath.phase(z))
    ws = watson_sum(spec, z, R)
    upper_sum = 0.0 + 0.0j
    head = 0.0 + 0.0j
    for n, c in enumerate(spec.coeffs(ws.n_star + 1)):
        w = n + 0.5
        upper_sum += c * gamma_upper(w, R * x) * cmath.exp(-w * log_z)
        head += c * gamma_lower(w, R * x) * cmath.exp(-w * log_z)
    assert ws.value - upper_sum == pytest.approx(head, rel=1e-12)


def test_tail_integral_one_term_closed_form():
    spec = builtin_spec("c0")
    for theta in (0.0, 0.3 * math.pi):
        z = 9.0 * cmath.exp(1j * theta)
        expected = cmath.exp(-1j * theta) * math.exp(-R * 9.0) / 9.0
        assert tail_integral_J(spec, z, R) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize(
    "name,params",
    [
        ("u_chg", dict(a=0.5, b=0.75)),
        ("struve_k0", {}),
        ("pole", dict(psi=0.4 * math.pi)),
        ("sqrt_branch", dict(psi=0.4 * math.pi)),
    ],
)
def test_hadamard_reconstruction(name, params):
    spec = builtin_spec(name, **params)
    for x in (5.0, 10.0, 20.0):
        for th in (0.0, 0.3, -0.3):
            z = x * cmath.exp(1j * math.pi * th)
            ref = reference_value(spec, z).value
            recon = hadamard_sum(spec, z, R, 400) + tail_integral_J(spec, z, R)
            assert abs(recon - ref) <= 1e-9 * abs(ref)


def test_hadamard_reconstruction_pole_explicit_term_budget():
    # pole(0.1pi) at z=20, theta=0: 120 terms suffice for 1e-10 relative.
    spec = builtin_spec("pole", psi=0.1 * math.pi)
    z = 20.0 + 0j
    ref = reference_value(spec, z).value
    recon = hadamard_sum(spec, z, R, n_terms=120) + tail_integral_J(spec, z, R)
    assert abs(recon - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("name", ["pole", "sqrt_branch"])
def test_reconstruction_with_crossing_contribution(name):
    # Once theta passes the singularity angle, the rotated tail misses the
    # singularity contribution; adding it restores the exact identity.  This
    # pins the sign and 2 pi i normalization of singularity_contribution.
    spec = builtin_spec(name, psi=0.1 * math.pi)
    for x in (5.0, 20.0):
        z = x * cmath.exp(0.3j * math.pi)
        ref = reference_value(spec, z).value
        contrib = singularity_contribution(spec.singularities[0], z)
        recon = hadamard_sum(spec, z, R, 400) + tail_integral_J(spec, z, R) + contrib
        assert abs(recon - ref) <= 1e-9 * abs(ref)


def test_tail_integral_displaced_path_at_theta_equal_psi():
    spec = builtin_spec("pole", psi=0.1 * math.pi)
    z = 20.0 * cmath.exp(0.1j * math.pi)
    value = tail_integral_J(spec, z, R)
    assert cmath.isfinite(value)
    ref = reference_value(spec, z).value
    recon = hadamard_sum(spec, z, R, 400) + value
    assert abs(recon - ref) <= 1e-9 * abs(ref)


def test_tail_integral_precondition():
    spec = builtin_spec("c0")
    with pytest.raises(DomainError):
        tail_integral_J(spec, -1.0 + 0.2j, R)


def test_upsilon_cases():
    psi = 0.1 * math.pi
    delta = 0.02 * math.pi
    assert upsilon(0.0, psi, delta) == 0
    assert upsilon(0.45 * math.pi, psi, delta) == 1
    assert upsilon(psi, psi, delta) == 0
    # conservative inside the gap band
    assert upsilon(psi + 0.5 * delta, psi, delta) == 1
    with pytest.raises(DomainError):
        upsilon(0.0, 0.0, delta)
    with pytest.raises(DomainError):
        upsilon(0.0, math.pi / 2, delta)


def test_singularity_contribution_pole():
    psi = 0.1 * math.pi
    spec = builtin_spec("pole", psi=psi)
    sing = spec.singularities[0]
    for theta in (0.0, psi, 0.45 * math.pi):
        z = 20.0 * cmath.exp(1j * theta)
        contrib = singularity_contribution(sing, z)
        expected = 2j * math.pi * cmath.exp(-z * cmath.exp(-1j * psi))
        assert contrib == pytest.approx(expected, rel=1e-14)
        assert abs(contrib) == pytest.approx(
            2 * math.pi * math.exp(-20.0 * math.cos(theta - psi)), rel=1e-13
        )
    z = 20.0 * cmath.exp(1j * psi)
    assert abs(singularity_contribution(sing, z)) == pytest.approx(
        2 * math.pi * math.exp(-20.0), rel=1e-13
    )


def test_singularity_contribution_sqrt_branch():
    psi = 0.1 * math.pi
    spec = builtin_spec("sqrt_branch", psi=psi)
    z = 20.0 * cmath.exp(0.45j * math.pi)
    contrib = singularity_contribution(spec.singularities[0], z)
    assert abs(contrib) == pytest.approx(
        2.0 * math.sqrt(math.pi / 20.0) * math.exp(-20.0 * math.cos(0.35 * math.pi)), rel=1e-13
    )


def test_singularity_contribution_mirror_conjugation():
    # A first-quadrant singularity is the mirror image of the fourth-quadrant
    # one; contributions must conjugate accordingly.
    psi = 0.2 * math.pi
    lower = Singularity(rho=1.0, phi=-psi, kind=SimplePole(residue=-1.0))
    upper = Singularity(rho=1.0, phi=psi, kind=SimplePole(residue=-1.0))
    z = 15.0 * cmath.exp(0.37j * math.pi)
    assert singularity_contribution(upper, z.conjugate()) == pytest.approx(
        singularity_contribution(lower, z).conjugate(), rel=1e-14
    )
    lower_b = Singularity(rho=1.0, phi=-psi, kind=SqrtBranch())
    upper_b = Singularity(rho=1.0, phi=psi, kind=SqrtBranch())
    assert singularity_contribution(upper_b, z.conjugate()) == pytest.approx(
        singularity_contribution(lower_b, z).conjugate(), rel=1e-14
    )


def test_significance_threshold():
    th = significance_threshold(0.8, 1.0, 0.1 * math.pi)
    assert th == pytest.approx(0.1 * math.pi + math.acos(0.8), rel=1e-14)
    assert th / math.pi == pytest.approx(0.3048, abs=2e-4)
    assert significance_threshold(0.8, 1.0, 0.4 * math.pi) > math.pi / 2
    assert significance_threshold(0.999999, 1.0, 0.1 * math.pi) == pytest.approx(
        0.1 * math.pi, abs=2e-3
    )
    with pytest.raises(DomainError):
        significance_threshold(1.0, 1.0, 0.1 * math.pi)
    with pytest.raises(DomainError):
        significance_threshold(1.2, 1.0, 0.1 * math.pi)


def test_remainder_envelope_cases():
    spec0 = builtin_spec("struve_k0")
    env = remainder_envelope(spec0, 10.0 + 0j, R)
    assert env == (pytest.approx(math.exp(-8.0), rel=1e-14), 0.0)

    pole1 = builtin_spec("pole", psi=0.1 * math.pi)
    z = 20.0 * cmath.exp(0.45j * math.pi)
    alg, sing = remainder_envelope(pole1, z, R)
    assert alg == pytest.approx(math.exp(-16.0), rel=1e-14)
    assert sing == pytest.approx(
        2 * math.pi * math.exp(-20.0 * math.cos(0.35 * math.pi)), rel=1e-13
    )
    assert sing > alg

    pole4 = builtin_spec("pole", psi=0.4 * math.pi)
    alg, sing = remainder_envelope(pole4, z, R)
    assert sing > 0.0  # theta=0.45pi is past psi=0.4pi
    assert alg > sing  # but the algebraic scale still dominates

    # below the singularity angle the switched term is absent
    alg, sing = remainder_envelope(pole4, 20.0 + 0j, R)
    assert sing == 0.0


def test_envelope_validity_on_subgrid():
    # measured |R| <= 50 (envelope_alg + envelope_sing): the concrete
    # stand-in constant for the order-bound check.
    from laplasym import measured_remainder

    cases = [
        ("u_chg", dict(a=0.5, b=0.75), (5.0, 20.0), (0.0, 0.3)),
        ("struve_k0", {}, (5.0, 20.0), (0.0, 0.3)),
        ("pole", dict(psi=0.1 * math.pi), (20.0,), (0.0, 0.2, 0.45)),
        ("sqrt_branch", dict(psi=0.1 * math.pi), (20.0,), (0.0, 0.2, 0.45)),
        ("pole", dict(psi=0.4 * math.pi), (20.0,), (0.0, 0.45)),
    ]
    for name, params, xs, ths in cases:
        spec = builtin_spec(name, **params)
        for x in xs:
            for th in ths:
                z = x * cmath.exp(1j * math.pi * th)
                rem = abs(measured_remainder(spec, z, R))
                alg, sing = remainder_envelope(spec, z, R)
                assert rem <= 50.0 * (alg + sing)


def test_term_minimum_near_limit_truncation_index():
    # At theta=0 the minimum-modulus term index of the full series should sit
    # within +/-2 of the r -> R limit of the truncation index.
    for name, params in [("u_chg", dict(a=0.5, b=0.75)), ("struve_k0", {})]:
        spec = builtin_spec(name, **params)
        for x in (10.0, 20.0):
            z = complex(x)
            log_z = complex(math.log(x), 0.0)
            from laplasym import log_gamma

            mags = []
            for n, c in enumerate(spec.coeffs(int(3 * x) + 2)):
                w = (n + spec.beta) / spec.mu
                mags.append(abs(c * cmath.exp(log_gamma(w) - w * log_z)))
            argmin = mags.index(min(mags))
            limit_index = spec.mu * spec.radius * x + spec.mu - complex(spec.beta).real
            assert abs(argmin - limit_index) <= 2.0


def test_eval_point_validation():
    p = EvalPoint(x=10.0, theta=0.3 * math.pi)
    assert p.z == pytest.approx(10.0 * cmath.exp(0.3j * math.pi), rel=1e-15)
    with pytest.raises(DomainError):
        EvalPoint(x=-1.0, theta=0.0)
    with pytest.raises(DomainError):
        EvalPoint(x=1.0, theta=0.49 * math.pi, delta=0.02 * math.pi)


def _per_term_hadamard(spec, z, r, n_terms):
    """Reference Hadamard sum: one gamma_lower_logc per term, same stopping rule."""
    x, theta = abs(z), cmath.phase(z)
    log_z = complex(math.log(x), theta)
    beta = complex(spec.beta)
    c = spec.coeffs(n_terms)
    terms, running, streak = [], 0j, 0
    for n in range(n_terms):
        if c[n] == 0:
            continue
        w = (n + beta) / spec.mu
        term = c[n] * cmath.exp(gamma_lower_logc(w, r * x) - w * log_z)
        terms.append(term)
        running += term
        log_bound = (
            math.log(spec.mu)
            + ((n + beta.real) / spec.mu) * math.log(r)
            - math.log(n + beta.real)
            + math.log(abs(c[n]))
            + theta * beta.imag / spec.mu
        )
        if log_bound < math.log(1e-16 * abs(running)):
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _struve_like(beta):
    """mu = 1/2 amplitude t^(2 beta - 1) (1 + t^2)^(-1/2): struve_k0's coefficients, complex beta."""
    base = builtin_spec("struve_k0")
    return AmplitudeSpec(
        mu=0.5,
        beta=beta,
        radius=1.0,
        coeffs=base.coeffs,
        evaluator=lambda t: cmath.exp((2.0 * beta - 1.0) * cmath.log(t)) * base.evaluator(t),
        growth_A=base.growth_A,
        growth_sigma=0.0,
        sector_alpha1=math.pi / 2,
        sector_alpha2=math.pi / 2,
        exclusions=base.exclusions,
    )


def _inverse_cubic():
    """mu = 1/3 amplitude 1/(1 + t^3) = sum (-1)^n t^(3(n + 1/3) - 1)."""
    return AmplitudeSpec(
        mu=1.0 / 3.0,
        beta=1.0 / 3.0,
        radius=1.0,
        coeffs=lambda n: (-1.0) ** np.arange(n) + 0j,
        evaluator=lambda t: 1.0 / (1.0 + t**3),
        growth_A=2.0,
        growth_sigma=0.0,
        sector_alpha1=math.pi / 2,
        sector_alpha2=math.pi / 2,
        exclusions=(cmath.exp(1j * math.pi / 3), -1.0 + 0j, cmath.exp(-1j * math.pi / 3)),
    )


LATTICE_SPECS = [
    ("u_chg", lambda: builtin_spec("u_chg", a=0.5, b=0.75)),
    ("u_chg complex beta", lambda: builtin_spec("u_chg", a=0.5 + 0.3j, b=1.25 - 0.5j)),
    ("struve_k0", lambda: builtin_spec("struve_k0")),
    ("mu=1/2 complex beta", lambda: _struve_like(0.5 + 0.2j)),
    ("pole", lambda: builtin_spec("pole", psi=0.1 * math.pi)),
    ("sqrt_branch", lambda: builtin_spec("sqrt_branch", psi=0.4 * math.pi)),
]


@pytest.mark.parametrize("label,make", LATTICE_SPECS)
def test_lattice_hadamard_matches_per_term_sum(label, make):
    # r|z| runs from 4 to 1280, so the lattice of gamma((n+beta)/mu, r|z|)
    # lies above the forward/backward split, across it, and below it.
    spec = make()
    for x in (5.0, 20.0, 100.0, 400.0, 1600.0):
        for th in (0.0, 0.3, -0.2):
            z = x * cmath.exp(1j * math.pi * th)
            want = _per_term_hadamard(spec, z, R, 500)
            assert abs(hadamard_sum(spec, z, R, 500) - want) <= 1e-13 * abs(want), (label, x, th)


def test_hadamard_short_lattice_one_side_of_split():
    spec = builtin_spec("u_chg", a=0.5, b=0.75)
    for x, n_terms in ((5.0, 1), (5.0, 2), (100.0, 1), (100.0, 3), (2.0, 60)):
        z = x * cmath.exp(0.2j)
        want = _per_term_hadamard(spec, z, R, n_terms)
        assert abs(hadamard_sum(spec, z, R, n_terms) - want) <= 1e-13 * abs(want)


def _count_calls(monkeypatch, names):
    from laplasym import expansion

    counts = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(expansion, name, counting(name, getattr(expansion, name)))
    return counts


def test_work_counts_on_the_unit_lattice(monkeypatch):
    counts = _count_calls(monkeypatch, ("log_gamma", "gamma_lower_logc", "gamma_upper_logc"))
    for spec in (builtin_spec("u_chg", a=0.5, b=0.75), builtin_spec("struve_k0")):
        counts.clear()
        ws = watson_sum(spec, 1600.0 * cmath.exp(0.2j * math.pi), R)
        assert ws.n_star >= 640
        assert counts["log_gamma"] == 1
        for x in (5.0, 20.0, 100.0, 400.0, 1600.0):
            counts.clear()
            hadamard_sum(spec, x * cmath.exp(0.2j * math.pi), R, 500)
            assert counts["gamma_lower_logc"] + counts["gamma_upper_logc"] <= 2


def test_other_mu_takes_the_per_term_fallback(monkeypatch):
    spec = _inverse_cubic()
    counts = _count_calls(monkeypatch, ("log_gamma", "gamma_lower_logc"))
    for th in (0.0, 0.2):
        z = 10.0 * cmath.exp(1j * math.pi * th)
        counts.clear()
        ws = watson_sum(spec, z, R)
        assert counts["log_gamma"] == ws.n_star + 1
        counts.clear()
        h = hadamard_sum(spec, z, R, 80)
        assert counts["gamma_lower_logc"] == 80
        ref = reference_value(spec, z).value
        assert abs(h + tail_integral_J(spec, z, R) - ref) <= 1e-9 * abs(ref)


def test_hadamard_pole_at_large_z_matches_reference():
    # gamma((n+1), r|z|) for n > 171 once overflowed through Gamma(a); the
    # omitted tail here is below e^(-r|z|) = e^(-1280), so the sum alone is I(z).
    spec = builtin_spec("pole", psi=0.1 * math.pi)
    for th in (0.0, 0.2, 0.4):
        z = 1600.0 * cmath.exp(1j * math.pi * th)
        ref = reference_value(spec, z).value
        assert abs(hadamard_sum(spec, z, R, 500) - ref) <= 1e-12 * abs(ref)
