"""Optimally truncated expansions and exponentially small error envelopes.

The truncated expansion of I(z) = int_0^inf e^{-zt} f(t) dt reads

    I(z) = sum_{n <= n*} c_n Gamma((n+beta)/mu) / z^((n+beta)/mu) + R(z),

with n* = floor(mu r |z| + mu - Re beta) for a fixed 0 < r < R.  The
remainder then satisfies |R| = O(e^{-r|z|}), plus a singularity term
O(e^{-|z| rho cos(theta - psi)}) switched on by the indicator upsilon once
arg z passes the singularity angle.  This module computes the truncated sum,
the convergent lower-incomplete-gamma rewrite (first-stage Hadamard sum) and
its tail integral, the singularity contributions, and the envelope scales.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .amplitude import AmplitudeSpec, SimplePole, Singularity, SqrtBranch
from .errors import DomainError
from .incgamma import gamma_lower_logc, gamma_upper_logc, log_gamma
from .quadrature import quad_complex_checked

# Default sector margin for envelope logic; CLI-overridable.
DEFAULT_DELTA = 0.02 * math.pi

# Rotated tail rays passing closer than this (relative to the singularity
# distance) switch to the displaced path parallel to the real axis.
_RAY_EPS = 1e-6


@dataclass(frozen=True)
class EvalPoint:
    """A point z = x e^{i theta} with its sector margin delta."""

    x: float
    theta: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        if not self.x > 0.0:
            raise DomainError(f"x must be positive, got {self.x}")
        if not self.delta > 0.0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if abs(self.theta) + self.delta > math.pi / 2 + 1e-12:
            raise DomainError(
                f"|theta| + delta must not exceed pi/2, got theta={self.theta}, delta={self.delta}"
            )

    @property
    def z(self) -> complex:
        return self.x * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class TruncatedExpansion:
    """Truncated-sum value, its terms, and the predicted remainder envelope."""

    n_star: int
    value: complex
    terms: tuple[complex, ...]
    envelope_alg: float
    envelope_sing: float


def truncation_index(mu: float, beta: complex, r: float, x: float) -> int:
    """n* = floor(mu r x + mu - Re beta), clamped below at 0."""
    beta = complex(beta)
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu}")
    if not beta.real > 0.0:
        raise DomainError(f"Re(beta) must be positive, got {beta}")
    if not r > 0.0:
        raise DomainError(f"r must be positive, got {r}")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return max(0, math.floor(mu * r * x + mu - beta.real))


def _check_z_r(spec: AmplitudeSpec, z: complex, r: float) -> tuple[float, float, complex]:
    x = abs(z)
    theta = cmath.phase(z)
    if x == 0.0 or not abs(theta) < math.pi / 2:
        raise DomainError(f"z must satisfy |arg z| < pi/2 and z != 0, got z={z}")
    if not 0.0 < r < spec.radius:
        raise DomainError(f"r must satisfy 0 < r < radius {spec.radius}, got r={r}")
    return x, theta, complex(math.log(x), theta)


def _fsum(terms: np.ndarray) -> complex:
    """Correctly rounded sum of complex terms, real and imaginary parts separately."""
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _lattice_step(mu: float) -> int | None:
    """1/mu when the exponents (n+beta)/mu lie 1/mu steps apart on a unit lattice, else None."""
    return {1.0: 1, 0.5: 2}.get(mu)


def _unit_lattice(w: np.ndarray, step: int) -> np.ndarray:
    """a_j = w_0 + j for j <= step (len(w) - 1); w_n is a_{step n}."""
    return w[0] + np.arange(step * (len(w) - 1) + 1)


def _lattice_log_gamma(a: np.ndarray) -> np.ndarray:
    """log Gamma(a_j) on a unit lattice: one log_gamma call, then a running sum of log a_j."""
    return np.cumsum(np.concatenate(([log_gamma(a[0])], np.log(a[:-1]))))


def _log_gamma_terms(w: np.ndarray, mu: float) -> np.ndarray:
    """log Gamma(w_n) for w_n = (n+beta)/mu (imaginary part mod 2 pi)."""
    step = _lattice_step(mu)
    if step is None:
        return np.array([log_gamma(v) for v in w.tolist()])
    return _lattice_log_gamma(_unit_lattice(w, step))[::step]


def _log_lower_forward(a: np.ndarray, chi: float, log_chi: float) -> np.ndarray:
    """log gamma(a_j, chi) on a unit lattice with Re a_j < chi.

    U_j = Gamma(a_j, chi) e^chi chi^(-a_j) obeys U_{j+1} = (a_j U_j + 1)/chi,
    which shrinks an error by |a_j|/chi < 1 a step; then
    log gamma = log Gamma(a) + log(1 - Gamma(a, chi)/Gamma(a)).
    """
    a0 = complex(a[0])
    u = cmath.exp(gamma_upper_logc(a0, chi) + chi - a0 * log_chi)
    us = [u]
    for aj in a[:-1].tolist():
        u = (aj * u + 1.0) / chi
        us.append(u)
    log_upper = np.log(us) - chi + a * log_chi
    lg = _lattice_log_gamma(a)
    return lg + np.log1p(-np.exp(log_upper - lg))


def _log_lower_backward(a: np.ndarray, chi: float, log_chi: float) -> np.ndarray:
    """log gamma(a_j, chi) on a unit lattice with Re a_j >= chi.

    S_j = gamma(a_j, chi) e^chi chi^(-a_j) obeys S_j = (chi S_{j+1} + 1)/a_j,
    which, run downward from the top, shrinks an error by chi/|a_j| < 1 a step.
    """
    top = complex(a[-1])
    s = cmath.exp(gamma_lower_logc(top, chi) + chi - top * log_chi)
    ss = [s]
    for aj in a[-2::-1].tolist():
        s = (chi * s + 1.0) / aj
        ss.append(s)
    return np.log(ss[::-1]) - chi + a * log_chi


def _log_lower_terms(w: np.ndarray, mu: float, chi: float) -> np.ndarray:
    """log gamma(w_n, chi) for w_n = (n+beta)/mu (imaginary part mod 2 pi).

    For mu = 1 or 1/2 the whole unit lattice through the w_n is filled from
    two incomplete-gamma evaluations: the recurrence runs forward below
    Re a = chi and backward above it.  Other mu evaluate every term.
    """
    step = _lattice_step(mu)
    if step is None:
        return np.array([gamma_lower_logc(v, chi) for v in w.tolist()])
    a = _unit_lattice(w, step)
    log_chi = math.log(chi)
    split = min(len(a), max(0, math.ceil(chi - a[0].real)))
    out = np.empty(len(a), dtype=complex)
    if split > 0:
        out[:split] = _log_lower_forward(a[:split], chi, log_chi)
    if split < len(a):
        out[split:] = _log_lower_backward(a[split:], chi, log_chi)
    return out[::step]


def watson_sum(
    spec: AmplitudeSpec, z: complex, r: float, delta: float = DEFAULT_DELTA
) -> TruncatedExpansion:
    """Optimally truncated expansion of I(z) with its error envelope.

    Terms are formed in log space (principal branch of z^w throughout) and
    summed with correct rounding.
    """
    x, _theta, log_z = _check_z_r(spec, z, r)
    n_star = truncation_index(spec.mu, spec.beta, r, x)
    c = np.asarray(spec.coeffs(n_star + 1), dtype=complex)
    w = (np.arange(n_star + 1) + spec.beta) / spec.mu
    nz = c != 0
    terms = np.zeros(n_star + 1, dtype=complex)
    terms[nz] = c[nz] * np.exp(_log_gamma_terms(w, spec.mu)[nz] - w[nz] * log_z)
    env_alg, env_sing = remainder_envelope(spec, z, r, delta)
    return TruncatedExpansion(
        n_star=n_star,
        value=_fsum(terms),
        terms=tuple(terms.tolist()),
        envelope_alg=env_alg,
        envelope_sing=env_sing,
    )


def hadamard_sum(spec: AmplitudeSpec, z: complex, r: float, n_terms: int) -> complex:
    """Convergent first-stage sum: sum_n c_n gamma((n+beta)/mu, r|z|) z^(-(n+beta)/mu).

    Together with the tail integral it reproduces I(z) exactly.  The sum
    stops after the third term in a row whose a-priori bound falls below
    1e-16 of the running sum.
    """
    if n_terms < 1:
        raise DomainError(f"n_terms must be positive, got {n_terms}")
    x, theta, log_z = _check_z_r(spec, z, r)
    chi = r * x
    beta = complex(spec.beta)
    c = np.asarray(spec.coeffs(n_terms), dtype=complex)
    w = (np.arange(n_terms) + beta) / spec.mu
    nz = np.flatnonzero(c)
    terms = np.zeros(n_terms, dtype=complex)
    terms[nz] = c[nz] * np.exp(_log_lower_terms(w, spec.mu, chi)[nz] - w[nz] * log_z)

    running = np.abs(np.cumsum(terms))
    n = nz[running[nz] > 0.0]
    # |gamma(w, chi)| <= mu (r x)^(Re w) / (n + Re beta); relative to
    # |z^w| = x^(Re w) e^(-theta Im w) this leaves mu r^(Re w)/(n+Re beta).
    log_bound = (
        math.log(spec.mu)
        + ((n + beta.real) / spec.mu) * math.log(r)
        - np.log(n + beta.real)
        + np.log(np.abs(c[n]))
        + theta * beta.imag / spec.mu
    )
    small = log_bound < np.log(1e-16 * running[n])
    streaks = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
    stop = n[streaks[0] + 2] + 1 if streaks.size else n_terms
    return _fsum(terms[:stop])


def _ray_singularity_distance(sing: Singularity, theta: float, r: float) -> float:
    """Distance from the ray {tau e^{-i theta}, tau >= r} to the singular point."""
    t0 = sing.location
    d_angle = -theta - sing.phi
    foot = sing.rho * math.cos(d_angle)
    if foot >= r:
        return sing.rho * abs(math.sin(d_angle))
    return abs(t0 - r * cmath.exp(-1j * theta))


def tail_integral_J(spec: AmplitudeSpec, z: complex, r: float, tol: float = 1e-12) -> complex:
    """Rotated tail integral J = e^{-i theta} int_r^inf e^{-|z| tau} f(tau e^{-i theta}) d tau.

    When the rotated ray passes within the exclusion distance of a
    singularity (theta near the singularity angle) the integration runs
    instead along the displaced path starting at r e^{-i theta} and going to
    infinity parallel to the real axis.
    """
    x, theta, _ = _check_z_r(spec, z, r)
    sigma = spec.growth_sigma
    if not z.real > sigma:
        raise DomainError(f"tail integral requires Re(z) > growth_sigma={sigma}, got z={z}")

    displaced = any(
        _ray_singularity_distance(s, theta, r) < _RAY_EPS * s.rho for s in spec.singularities
    )
    phase = cmath.exp(-1j * theta)

    if not displaced:
        rate = x - sigma
        scale = math.exp(-x * r) * spec.growth_A / max(rate, 1e-6)
        upper = r + (math.log(spec.growth_A / (tol * 1e-3)) + 40.0) / rate
        points = []
        for s in spec.singularities:
            foot = s.rho * math.cos(-theta - s.phi)
            if r < foot < upper:
                points.append(foot)

        def integrand(tau: float) -> complex:
            return math.exp(-x * tau) * spec.evaluator(tau * phase)

        value, _err, _n = quad_complex_checked(
            integrand,
            r,
            upper,
            epsabs=tol * scale * 0.01,
            epsrel=tol * 0.1,
            fail_abs=tol * scale * 10.0,
            points=points,
        )
        return phase * value

    # Displaced path: t = r e^{-i theta} + u, u in [0, inf); z t_start = r|z|.
    t_start = r * phase
    rate = z.real - sigma
    upper = (math.log(spec.growth_A / (tol * 1e-3)) + 40.0) / rate
    points = []
    for s in spec.singularities:
        u_near = (s.location - t_start).real
        if 0.0 < u_near < upper:
            points.append(u_near)

    def integrand_d(u: float) -> complex:
        return cmath.exp(-z * u) * spec.evaluator(t_start + u)

    scale = spec.growth_A / max(rate, 1e-6)
    value, _err, _n = quad_complex_checked(
        integrand_d,
        0.0,
        upper,
        epsabs=tol * scale * 0.01,
        epsrel=tol * 0.1,
        fail_abs=tol * scale * 10.0,
        points=points,
    )
    return math.exp(-x * r) * value


def upsilon(theta: float, psi: float, delta: float) -> int:
    """Indicator switching on the singularity term once theta passes psi.

    0 for theta <= psi, 1 beyond; inside the proof-gap band (psi, psi+delta)
    the conservative value 1 is returned.
    """
    if not 0.0 < psi < math.pi / 2:
        raise DomainError(f"psi must lie in (0, pi/2), got {psi}")
    if not delta > 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    return 0 if theta <= psi else 1


def singularity_contribution(sing: Singularity, z: complex) -> complex:
    """Crossing contribution of one singularity to I(z).

    Simple pole: -2 pi i residue e^{-z t0} for a fourth-quadrant singularity
    (clockwise crossing as theta increases past psi = -phi); mirrored sign in
    the first quadrant.  Square-root branch point: 2 i e^{-z t0}
    sqrt(pi / (z e^{i psi})), principal root, normalized the same way.
    """
    theta = cmath.phase(z)
    if not abs(theta) < math.pi / 2:
        raise DomainError(f"|arg z| must be < pi/2, got z={z}")
    t0 = sing.location
    sign = -1.0 if sing.phi < 0 else 1.0
    if isinstance(sing.kind, SimplePole):
        return sign * 2j * math.pi * sing.kind.residue * cmath.exp(-z * t0)
    if isinstance(sing.kind, SqrtBranch):
        # e^{i psi} = e^{-i phi} for the fourth-quadrant convention.
        return -sign * 2j * cmath.exp(-z * t0) * cmath.sqrt(math.pi / (z * cmath.exp(-1j * sing.phi)))
    raise DomainError(f"unknown singularity kind {sing.kind!r}")


def significance_threshold(r: float, rho: float, psi: float) -> float:
    """Angle psi + arccos(r/rho) beyond which the singularity term dominates e^{-r|z|}."""
    if not 0.0 < r < rho:
        raise DomainError(
            f"threshold defined only for 0 < r < rho, got r={r}, rho={rho} "
            "(the singularity term never dominates otherwise)"
        )
    return psi + math.acos(r / rho)


def remainder_envelope(
    spec: AmplitudeSpec, z: complex, r: float, delta: float = DEFAULT_DELTA
) -> tuple[float, float]:
    """(e^{-r|z|}, sum of switched-on singularity contribution magnitudes)."""
    x = abs(z)
    theta = cmath.phase(z)
    env_alg = math.exp(-r * x)
    env_sing = 0.0
    for s in spec.singularities:
        psi = abs(s.phi)
        eff_theta = theta if s.phi < 0 else -theta
        if upsilon(eff_theta, psi, delta):
            env_sing += abs(singularity_contribution(s, z))
    return env_alg, env_sing
