"""Superasymptotics of the scaled exponential integral.

The scaled exponential integral E(x) = x e^x E1(x) = x int_0^inf e^{-xt}/(1+t) dt
has the divergent expansion sum (-1)^k k!/x^k whose remainder after n terms is
the explicit integral (-1)^n x int_0^inf t^n e^{-xt}/(1+t) dt, bounded by the
first neglected term n!/x^n and sharing its sign.  Truncating at the least
term (index floor(x)) leaves an exponentially small remainder of order
(2 pi x)^(1/2) e^{-x}, and the converging-factor estimate
u_n / (1 - e^{-i alpha}) predicts about half the least term when the nearest
singularity sits at angle alpha = pi.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from scipy import integrate

from .errors import DomainError


def _quad(f, a: float, b: float, points=None) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _err = integrate.quad(
            f, a, b, epsabs=1e-300, epsrel=5e-14, points=points, limit=400
        )
    return val


@dataclass(frozen=True)
class E1Expansion:
    x: float
    n: int
    partial_sum: float
    remainder: float
    least_term_index: int


def _check_x(x: float) -> None:
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")


def script_E(x: float) -> float:
    """E(x) = x int_0^inf e^{-xt}/(1+t) dt by adaptive quadrature."""
    _check_x(x)
    upper = 45.0 / x

    def f(t: float) -> float:
        return math.exp(-x * t) / (1.0 + t)

    return x * _quad(f, 0.0, upper)


def e1_partial_sum(x: float, n: int) -> float:
    """sum_{k<n} (-1)^k k!/x^k, terms formed in log space."""
    _check_x(x)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    log_x = math.log(x)
    terms = [(-1.0) ** k * math.exp(math.lgamma(k + 1) - k * log_x) for k in range(n)]
    return math.fsum(terms)


def e1_remainder_integral(x: float, n: int) -> float:
    """R_n(x) = (-1)^n x int_0^inf t^n e^{-xt}/(1+t) dt.

    Satisfies the exact decomposition script_E(x) = e1_partial_sum(x, n) + R_n(x)
    and the first-neglected-term bound |R_n(x)| < n!/x^n.
    """
    _check_x(x)
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n == 0:
        return script_E(x)
    peak = n / x
    log_peak = n * math.log(peak) - n
    upper = peak
    while n * math.log(upper) - x * upper > log_peak - 50.0:
        upper *= 1.5

    def f(t: float) -> float:
        if t <= 0.0:
            return 0.0
        return math.exp(n * math.log(t) - x * t) / (1.0 + t)

    return (-1.0) ** n * x * _quad(f, 0.0, upper, points=[peak])


def e1_optimal_index(x: float) -> int:
    """Least-term index floor(x); integer x ties break to x-1."""
    _check_x(x)
    fl = math.floor(x)
    if x == fl:
        return int(fl) - 1
    return int(fl)


def superasymptotic_estimate(x: float) -> float:
    """(2 pi x)^(1/2) e^{-x}, the optimally truncated remainder scale."""
    if not x >= 1.0:
        raise DomainError(f"estimate requires x >= 1, got {x}")
    return math.sqrt(2.0 * math.pi * x) * math.exp(-x)


def jeffreys_estimate(u_n: complex, alpha: float) -> complex:
    """Converging-factor estimate u_n / (1 - e^{-i alpha}); alpha = 0 (mod 2 pi) rejected."""
    if abs(math.remainder(alpha, 2.0 * math.pi)) < 1e-9:
        raise DomainError(f"alpha must not be 0 mod 2 pi, got {alpha}")
    return u_n / (1.0 - cmath.exp(-1j * alpha))


def e1_expansion(x: float, n: int) -> E1Expansion:
    """Assemble the exact decomposition E(x) = partial_sum + remainder at order n."""
    return E1Expansion(
        x=x,
        n=n,
        partial_sum=e1_partial_sum(x, n),
        remainder=e1_remainder_integral(x, n),
        least_term_index=e1_optimal_index(x),
    )
