"""Incomplete gamma functions with complex parameter and real argument.

Provides gamma(a), the lower incomplete gamma(a, chi) and the upper
Gamma(a, chi) for complex a and chi > 0, plus the two closed-form tail
bounds used by the truncation-error analysis:

    |Gamma(omega+1, chi)| <= 2 e^-chi chi^(Re omega + 1)   (-1 <= Re omega <= chi, chi >= 1)
    |gamma(omega+1, chi)| <=   e^-chi chi^(Re omega + 1)   (Re omega >= chi > 0)

Algorithm split: power series for the lower function when chi < Re(a)+1,
Legendre continued fraction (modified Lentz) for the upper function when
chi >= Re(a)+1, the complement identity for whichever is not computed
directly.  Every function also has a log-scaled variant returning
(log-modulus, phase) so callers can divide by z^((n+beta)/mu) in log space
without overflow.
"""

from __future__ import annotations

import cmath
import math

from .errors import ConvergenceError, DomainError

_LANCZOS_G = 607.0 / 128.0
# Godfrey's 15-term coefficient set for g = 607/128 (about 15 correct digits
# on the right half-plane).
_LANCZOS_P = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_CF_TOL = 1e-15
_MAX_ITER = 10_000


def _is_nonpositive_integer(a: complex) -> bool:
    return a.imag == 0.0 and a.real <= 0.0 and a.real == math.floor(a.real)


def _clog1p(w: complex) -> complex:
    """log(1 + w) for complex w with small-|w| accuracy (cmath lacks log1p)."""
    u = 1.0 + w
    if u == 1.0:
        return w
    return cmath.log(u) * (w / (u - 1.0))


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), stable for large |Im z| (result Im is mod 2 pi)."""
    if z.imag < 0.0:
        return _log_sin_pi(z.conjugate()).conjugate()
    if z.imag > 20.0:
        # sin(pi z) = -e^{-i pi z} (1 - e^{2 i pi z}) / (2i)
        w = 2j * math.pi * z
        return -1j * math.pi * z + 1j * math.pi / 2 - math.log(2.0) + _clog1p(-cmath.exp(w))
    return cmath.log(cmath.sin(math.pi * z))


def log_gamma(a: complex) -> complex:
    """Principal-value log of Gamma(a); Im part is defined only mod 2 pi.

    Lanczos rational approximation on Re(a) >= 1/2, reflection otherwise.
    """
    a = complex(a)
    if _is_nonpositive_integer(a):
        raise DomainError(f"gamma pole at a={a}")
    if a.real < 0.5:
        return math.log(math.pi) - _log_sin_pi(a) - log_gamma(1.0 - a)
    z = a - 1.0
    s = complex(_LANCZOS_P[0])
    for i in range(1, len(_LANCZOS_P)):
        s += _LANCZOS_P[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * cmath.log(t) - t + cmath.log(s)


def gamma_complete(a: complex) -> complex:
    """Complete gamma function for complex a (poles rejected)."""
    return cmath.exp(log_gamma(a))


def gamma_complete_log(a: complex) -> tuple[float, float]:
    """(log|Gamma(a)|, phase of Gamma(a)), phase wrapped to (-pi, pi]."""
    lg = log_gamma(a)
    return lg.real, _wrap_phase(lg.imag)


def _wrap_phase(im: float) -> float:
    w = math.remainder(im, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


def _lower_series_log(a: complex, chi: float) -> complex:
    """log of gamma(a, chi) via the ascending power series (all chi > 0)."""
    term = 1.0 / a
    s = term
    for k in range(1, _MAX_ITER):
        term *= chi / (a + k)
        s += term
        if abs(term) <= 1e-17 * abs(s):
            return a * math.log(chi) - chi + cmath.log(s)
    raise ConvergenceError(f"lower-gamma series did not converge for a={a}, chi={chi}")


def _upper_cf_log(a: complex, chi: float) -> complex:
    """log of Gamma(a, chi) via the Legendre continued fraction (Lentz)."""
    tiny = 1e-300
    b = chi + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = complex(tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = complex(tiny)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return a * math.log(chi) - chi + cmath.log(h)
    raise ConvergenceError(
        f"upper-gamma continued fraction did not converge for a={a}, chi={chi}"
    )


def _check_chi(chi: float) -> None:
    if not chi > 0.0:
        raise DomainError(f"chi must be positive, got {chi}")


def gamma_lower_logc(a: complex, chi: float) -> complex:
    """Complex log of gamma(a, chi); requires Re(a) > 0, chi > 0."""
    a = complex(a)
    _check_chi(chi)
    if not a.real > 0.0:
        raise DomainError(f"gamma_lower requires Re(a) > 0, got a={a}")
    if chi < a.real + 1.0:
        return _lower_series_log(a, chi)
    lg = log_gamma(a)
    # The ratio Gamma(a, chi)/Gamma(a) is formed in log space: either factor
    # alone overflows once Re(a) > 171.
    return lg + _clog1p(-cmath.exp(_upper_cf_log(a, chi) - lg))


def gamma_upper_logc(a: complex, chi: float) -> complex:
    """Complex log of Gamma(a, chi); chi > 0, any complex a."""
    a = complex(a)
    _check_chi(chi)
    if a.real <= 0.0 or chi >= a.real + 1.0:
        return _upper_cf_log(a, chi)
    lg = log_gamma(a)
    return lg + _clog1p(-cmath.exp(_lower_series_log(a, chi) - lg))


def gamma_lower(a: complex, chi: float) -> complex:
    """Lower incomplete gamma(a, chi) = integral of e^-t t^(a-1) over [0, chi]."""
    return cmath.exp(gamma_lower_logc(a, chi))


def gamma_upper(a: complex, chi: float) -> complex:
    """Upper incomplete Gamma(a, chi) = integral of e^-t t^(a-1) over [chi, inf)."""
    return cmath.exp(gamma_upper_logc(a, chi))


def gamma_lower_log(a: complex, chi: float) -> tuple[float, float]:
    """(log-modulus, phase) of gamma(a, chi)."""
    lg = gamma_lower_logc(a, chi)
    return lg.real, _wrap_phase(lg.imag)


def gamma_upper_log(a: complex, chi: float) -> tuple[float, float]:
    """(log-modulus, phase) of Gamma(a, chi)."""
    lg = gamma_upper_logc(a, chi)
    return lg.real, _wrap_phase(lg.imag)


def bound_a1(omega: complex, chi: float) -> float:
    """Upper-tail bound 2 e^-chi chi^(a+1) >= |Gamma(omega+1, chi)|, a = Re omega.

    Proven for -1 <= a <= chi with chi >= 1; other parameters are rejected.
    """
    omega = complex(omega)
    a = omega.real
    if chi < 1.0:
        raise DomainError(f"tail bound requires chi >= 1, got chi={chi}")
    if not -1.0 <= a <= chi:
        raise DomainError(f"tail bound requires -1 <= Re(omega) <= chi, got Re={a}, chi={chi}")
    return 2.0 * math.exp((a + 1.0) * math.log(chi) - chi)


def bound_a2(omega: complex, chi: float) -> float:
    """Head bound e^-chi chi^(a+1) >= |gamma(omega+1, chi)|, a = Re omega >= chi > 0."""
    omega = complex(omega)
    a = omega.real
    _check_chi(chi)
    if a < chi:
        raise DomainError(f"head bound requires Re(omega) >= chi, got Re={a}, chi={chi}")
    return math.exp((a + 1.0) * math.log(chi) - chi)
