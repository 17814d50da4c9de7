"""Amplitude-function models for Laplace integrals I(z) = int_0^inf e^{-zt} f(t) dt.

An amplitude is described by the exponents (mu, beta) of its fractional-power
series f(t) = sum_n c_n t^{(n+beta)/mu - 1}, the convergence radius of that
series, a closed-form evaluator, exponential growth constants valid on the
tracked sector, and the singularities on or beyond the circle of convergence
that control the exponentially small remainder once arg z sweeps past them.

Four builtin models ship with closed-form coefficients and evaluators:

    u_chg(a, b)      t^(a-1) (1+t)^-b          mu=1,   beta=a, R=1
    struve_k0        (1+t^2)^-1/2              mu=1/2, beta=1/2, R=1
    pole(psi)        e^{i psi}/(1 - e^{i psi} t)   simple pole at e^{-i psi}
    sqrt_branch(psi) (1 - t e^{i psi})^-1/2        branch point at e^{-i psi}

plus the degenerate "c0" model (f identically 1) used for exactness checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, SingularityError

# Margin (radians) kept from sector boundaries and singular rays when growth
# constants are derived and when they are checked.  The stored growth
# constants are conservative and non-normative: they are hand-derived for the
# builtin closed forms on rays at least this far from any singular direction.
GROWTH_MARGIN = 0.02 * math.pi

# Exclusion radius around a singular point, as a fraction of its distance
# from the origin; evaluator calls closer than this are rejected.
SINGULARITY_EPS = 1e-8


@dataclass(frozen=True)
class SimplePole:
    residue: complex


@dataclass(frozen=True)
class SqrtBranch:
    pass


SingularityKind = Union[SimplePole, SqrtBranch]


@dataclass(frozen=True)
class Singularity:
    """A singular point rho * e^{i phi} of the amplitude function.

    phi is signed; the fourth-quadrant pole of the builtin `pole` model sits
    at phi = -psi.
    """

    rho: float
    phi: float
    kind: SingularityKind

    def __post_init__(self) -> None:
        if not self.rho > 0.0:
            raise DomainError(f"singularity distance must be positive, got {self.rho}")
        if not abs(self.phi) < math.pi / 2:
            raise DomainError(f"singularity angle must satisfy |phi| < pi/2, got {self.phi}")

    @property
    def location(self) -> complex:
        return self.rho * cmath.exp(1j * self.phi)


@dataclass(frozen=True)
class AmplitudeSpec:
    """Full description of an amplitude function f(t).

    coeffs(n) returns the first n series coefficients c_0 .. c_{n-1} as a
    complex array; the builtins return read-only arrays built from their
    own recurrences.
    """

    mu: float
    beta: complex
    radius: float
    coeffs: Callable[[int], np.ndarray]
    evaluator: Callable[[complex], complex]
    growth_A: float
    growth_sigma: float
    sector_alpha1: float
    sector_alpha2: float
    singularities: tuple[Singularity, ...] = ()
    exclusions: tuple[complex, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise DomainError(f"mu must be positive, got {self.mu}")
        if not complex(self.beta).real > 0.0:
            raise DomainError(f"Re(beta) must be positive, got {self.beta}")
        if not self.radius > 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        if not self.growth_A > 0.0:
            raise DomainError(f"growth_A must be positive, got {self.growth_A}")
        if self.growth_sigma < 0.0:
            raise DomainError(f"growth_sigma must be nonnegative, got {self.growth_sigma}")
        half_pi = math.pi / 2
        if self.sector_alpha1 < half_pi - 1e-12 or self.sector_alpha2 < half_pi - 1e-12:
            raise DomainError("sector half-angles must be >= pi/2")
        for s in self.singularities:
            if s.rho < self.radius - 1e-12:
                raise DomainError(
                    f"singularity at distance {s.rho} inside convergence radius {self.radius}"
                )


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product for n = 0."""
    if n < 0:
        raise DomainError(f"pochhammer order must be nonnegative, got {n}")
    p: complex = 1.0
    for k in range(n):
        p *= a + k
    return p


def evaluate_amplitude(spec: AmplitudeSpec, t: complex, eps: float = SINGULARITY_EPS) -> complex:
    """Closed-form f(t), guarding against evaluation too near a singular point."""
    for s in spec.singularities:
        if abs(t - s.location) < eps * s.rho:
            raise SingularityError(f"t={t} within exclusion radius of singularity at {s.location}")
    for p in spec.exclusions:
        if abs(t - p) < eps * abs(p):
            raise SingularityError(f"t={t} within exclusion radius of singular point {p}")
    return spec.evaluator(t)


def series_value(spec: AmplitudeSpec, t: complex, n_terms: int) -> complex:
    """Partial sum of the fractional-power series sum_{n<n_terms} c_n t^((n+beta)/mu - 1)."""
    if t == 0:
        raise DomainError("series_value requires t != 0 (fractional powers at the origin)")
    log_t = cmath.log(t)
    total: complex = 0.0
    for n, c in enumerate(spec.coeffs(n_terms).tolist()):
        if c == 0:
            continue
        expo = (n + spec.beta) / spec.mu - 1.0
        total += c * cmath.exp(expo * log_t)
    return total


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=complex)
    out.flags.writeable = False
    return out


def _unit_phases(psi: float, k: np.ndarray) -> np.ndarray:
    """e^{i psi k} for integers 0 <= k < 2^31.

    psi is split as hi + lo with hi on a 2^-20 grid, so hi*k is exact and
    lo*k is tiny; a plain psi*k would carry its rounding, about
    1e-16 |psi k|, into the phase.
    """
    hi = round(psi * 2.0**20) / 2.0**20
    return np.exp(1j * (hi * k)) * np.exp(1j * ((psi - hi) * k))


def _pochhammer_ratio_coeffs(a: complex, sign: float, n: int) -> np.ndarray:
    """sign^k (a)_k / k! for k < n, as a running product of the ratios sign (a+k)/(k+1)."""
    a = complex(a)
    d = np.arange(1.0, n)  # k + 1 for k < n - 1
    ratios = np.empty(n, dtype=complex)
    ratios[:1] = 1.0
    # Real and imaginary parts divided separately, each rounded once.
    ratios.real[1:] = sign * (a.real + d - 1.0) / d
    ratios.imag[1:] = sign * a.imag / d
    return np.cumprod(ratios)


def _spec_u_chg(a: complex, b: complex) -> AmplitudeSpec:
    a = complex(a)
    b = complex(b)
    if not a.real > 0.0:
        raise DomainError(f"u_chg requires Re(a) > 0, got a={a}")

    def f(t: complex) -> complex:
        return cmath.exp((a - 1.0) * cmath.log(t) - b * cmath.log(1.0 + t))

    # |f| sampled on rays within the sector margin; non-normative.
    growth_a = _sampled_growth_constant(f, math.pi, excluded_angles=(math.pi,))
    return AmplitudeSpec(
        mu=1.0,
        beta=a,
        radius=1.0,
        coeffs=lambda n: _frozen(_pochhammer_ratio_coeffs(b, -1.0, n)),
        evaluator=f,
        growth_A=growth_a,
        growth_sigma=0.0,
        sector_alpha1=math.pi,
        sector_alpha2=math.pi,
        singularities=(),
        exclusions=(-1.0 + 0.0j,),
        label=f"u_chg(a={a:g}, b={b:g})",
    )


def _sampled_growth_constant(f, alpha: float, excluded_angles=()) -> float:
    """Conservative bound on |f| over rays in the sector, margin GROWTH_MARGIN."""
    best = 1.0
    n_rays = 17
    for i in range(n_rays):
        ang = -alpha + GROWTH_MARGIN + i * (2 * alpha - 2 * GROWTH_MARGIN) / (n_rays - 1)
        if any(abs(ang - e) < GROWTH_MARGIN for e in excluded_angles):
            continue
        for k in range(60):
            rr = 10.0 ** (-1.0 + 2.7 * k / 59.0)
            t = rr * cmath.exp(1j * ang)
            try:
                best = max(best, abs(f(t)))
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
    return 1.25 * best


def _spec_struve_k0() -> AmplitudeSpec:
    def f(t: complex) -> complex:
        return 1.0 / cmath.sqrt(1.0 + t * t)

    # max |f| on |arg t| <= pi/2 - GROWTH_MARGIN is (2 sin GROWTH_MARGIN)^(-1/2).
    growth_a = 1.25 / math.sqrt(2.0 * math.sin(GROWTH_MARGIN))
    return AmplitudeSpec(
        mu=0.5,
        beta=0.5,
        radius=1.0,
        coeffs=lambda n: _frozen(_pochhammer_ratio_coeffs(0.5, -1.0, n)),
        evaluator=f,
        growth_A=growth_a,
        growth_sigma=0.0,
        sector_alpha1=math.pi / 2,
        sector_alpha2=math.pi / 2,
        singularities=(),
        exclusions=(1j, -1j),
        label="struve_k0",
    )


def _check_psi(psi: float) -> None:
    if not 0.0 < psi < math.pi / 2:
        raise DomainError(f"psi must lie in (0, pi/2), got {psi}")


def _spec_pole(psi: float) -> AmplitudeSpec:
    _check_psi(psi)
    w = cmath.exp(1j * psi)

    def f(t: complex) -> complex:
        return w / (1.0 - w * t)

    # Residue of f at t0 = e^{-i psi} is -1.
    sing = Singularity(rho=1.0, phi=-psi, kind=SimplePole(residue=-1.0))
    return AmplitudeSpec(
        mu=1.0,
        beta=1.0,
        radius=1.0,
        coeffs=lambda n: _frozen(_unit_phases(psi, np.arange(1.0, n + 1))),
        evaluator=f,
        growth_A=1.25 / math.sin(GROWTH_MARGIN),
        growth_sigma=0.0,
        sector_alpha1=math.pi / 2,
        sector_alpha2=math.pi / 2,
        singularities=(sing,),
        label=f"pole(psi={psi / math.pi:g}pi)",
    )


def _spec_sqrt_branch(psi: float) -> AmplitudeSpec:
    _check_psi(psi)
    w = cmath.exp(1j * psi)

    def f(t: complex) -> complex:
        return 1.0 / cmath.sqrt(1.0 - t * w)

    sing = Singularity(rho=1.0, phi=-psi, kind=SqrtBranch())
    return AmplitudeSpec(
        mu=1.0,
        beta=1.0,
        radius=1.0,
        coeffs=lambda n: _frozen(
            _pochhammer_ratio_coeffs(0.5, 1.0, n) * _unit_phases(psi, np.arange(float(n)))
        ),
        evaluator=f,
        growth_A=1.25 / math.sqrt(math.sin(GROWTH_MARGIN)),
        growth_sigma=0.0,
        sector_alpha1=math.pi / 2,
        sector_alpha2=math.pi / 2,
        singularities=(sing,),
        label=f"sqrt_branch(psi={psi / math.pi:g}pi)",
    )


def _spec_c0() -> AmplitudeSpec:
    return AmplitudeSpec(
        mu=1.0,
        beta=1.0,
        radius=math.inf,
        coeffs=lambda n: _frozen(np.arange(n) == 0),
        evaluator=lambda t: 1.0 + 0.0j,
        growth_A=1.0,
        growth_sigma=0.0,
        sector_alpha1=math.pi,
        sector_alpha2=math.pi,
        singularities=(),
        label="c0",
    )


_BUILTIN_PARAMS = {
    "u_chg": ("a", "b"),
    "struve_k0": (),
    "pole": ("psi",),
    "sqrt_branch": ("psi",),
    "c0": (),
}


def builtin_spec(name: str, **params) -> AmplitudeSpec:
    """Construct one of the builtin amplitude models by name.

    Names and parameters: u_chg(a, b), struve_k0, pole(psi), sqrt_branch(psi),
    c0 (trivial one-term amplitude, f = 1).
    """
    if name not in _BUILTIN_PARAMS:
        raise DomainError(f"unknown builtin amplitude {name!r}; known: {sorted(_BUILTIN_PARAMS)}")
    expected = set(_BUILTIN_PARAMS[name])
    got = set(params)
    if expected != got:
        raise DomainError(f"builtin {name!r} takes parameters {sorted(expected)}, got {sorted(got)}")
    if name == "u_chg":
        return _spec_u_chg(params["a"], params["b"])
    if name == "struve_k0":
        return _spec_struve_k0()
    if name == "pole":
        return _spec_pole(params["psi"])
    if name == "sqrt_branch":
        return _spec_sqrt_branch(params["psi"])
    return _spec_c0()
