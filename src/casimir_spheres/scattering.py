r"""Perfect-metal sphere T-matrix elements on the imaginary frequency axis.

The scattering operator of a perfect-metal sphere is diagonal in multipole
order l, azimuthal index m and polarization P (magnetic M / electric E),
with elements

.. math::
    T^{MM}_l = -\frac{\pi}{2}\,
        \frac{I_{l+1/2}(\kappa R)}{K_{l+1/2}(\kappa R)}, \qquad
    T^{EE}_l = -\frac{\pi}{2}\,
        \frac{l\,I_{l+1/2}(\kappa R) - \kappa R\,I_{l-1/2}(\kappa R)}
             {l\,K_{l+1/2}(\kappa R) + \kappa R\,K_{l-1/2}(\kappa R)}.

Internally everything is carried as the exponentially scaled quantity
``T * exp(-2*kappa*R)`` in log magnitude plus sign: the raw elements grow
like ``exp(+2 kappa R)`` at large argument and underflow like
``(kappa R)^{2l+1}`` at small argument, while the scaled logs are benign.

The E-mode numerator ``l I_{l+1/2} - x I_{l-1/2}`` has one algorithm per
entry, chosen by the seam ``x = 2l + 4``.  Below it the numerator is summed
as its single-signed power series, which sidesteps the subtractive
cancellation of the naive difference at small argument; at and above it
the ``x I_{l-1/2}`` term dominates (``I_{l+1/2} < I_{l-1/2}``) and the
difference is taken in the log domain from the Bessel ladder.  The series
thus runs only where it needs at most about ``2 l_max + 4`` terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from . import specfun
from .errors import NonConvergenceError

# terms of the E-mode numerator series before it counts as not converged;
# the series runs only below y = 2 l + 4, so about 100 suffice at l_max 48
_EE_SERIES_MAX_TERMS = 600


class Polarization(str, Enum):
    M = "M"
    E = "E"


@dataclass(frozen=True)
class MultipoleIndex:
    """Vector multipole channel (l, m, P) with l >= 1 and |m| <= l."""

    l: int
    m: int
    pol: Polarization

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("vector multipoles start at l = 1")
        if abs(self.m) > self.l:
            raise ValueError("|m| must not exceed l")


@dataclass(frozen=True)
class TMatrixBlock:
    """Diagonal T-matrix data for all channels up to ``l_max``.

    ``diag_mm[l-1]`` and ``diag_ee[l-1]`` hold the exact elements for
    multipole order l; the same value is reused for every |m| <= l.
    """

    kappa_R: float
    l_max: int
    diag_mm: np.ndarray
    diag_ee: np.ndarray


def _check_series_terms(k: int, y) -> None:
    if k >= _EE_SERIES_MAX_TERMS:
        raise NonConvergenceError(
            f"E-mode numerator series not converged after {k} terms at "
            f"kappa*R up to {np.max(y):g}")


def t_scaled_log_vec(l_max: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|T e^{-2y}| for both polarizations, l = 1..l_max, at each y = kappa*R.

    Returns ``(log_t_mm, log_t_ee)`` of shape (len(y), l_max).  Signs are
    fixed: the M element is negative and the E element positive for every
    y > 0.
    """
    y = np.asarray(y, dtype=float)
    log_i = specfun.log_scaled_iv_ladder_vec(l_max, y)
    log_k = specfun.log_scaled_kv_ladder_vec(l_max, y)
    ls = np.arange(1, l_max + 1, dtype=float)[None, :]
    yv = y[:, None]
    ln_half_pi = math.log(math.pi / 2.0)

    log_t_mm = ln_half_pi + log_i[:, 1:] - log_k[:, 1:]

    # E-mode numerator |l I_{l+1/2} - y I_{l-1/2}| e^{-y}: on the entries
    # y < 2l + 4 the series sum_k (y/2)^{l+1/2+2k} (l+1+2k) /
    # (k! Gamma(l+k+3/2)), whose terms share one sign; elsewhere its terms
    # are zero (q = 0) and the log-difference below replaces them
    series = yv < 2.0 * ls + 4.0
    q = np.where(series, 0.25 * yv * yv, 0.0)
    term = np.broadcast_to(ls + 1.0, series.shape).copy()
    total = term.copy()
    k = 0
    while True:
        k += 1
        # c_k / c_{k-1} = q (l+1+2k) / (k (l+1/2+k) (l+2k-1))
        term = term * q * (ls + 1.0 + 2 * k) / (k * (ls + 0.5 + k) * (ls + 2.0 * k - 1.0))
        total += term
        if np.all(term <= 1e-18 * total):
            break
        _check_series_terms(k, y)
    if not np.all(np.isfinite(total)):
        # the stop test passes as inf <= inf once the terms overflow
        raise OverflowError(
            f"E-mode numerator series overflows at kappa*R up to {np.max(y):g}")
    log_num = (ls + 0.5) * np.log(0.5 * yv) - gammaln(ls + 1.5) + np.log(total) - yv
    far = ~series
    if far.any():
        # y >= 2l + 4: the y term dominates, y - l I_{l+1/2}/I_{l-1/2} > y - l
        y_far = np.broadcast_to(yv, far.shape)[far]
        l_far = np.broadcast_to(ls, far.shape)[far]
        li_m, li_p = log_i[:, :-1][far], log_i[:, 1:][far]
        log_num[far] = li_m + np.log(y_far - l_far * np.exp(li_p - li_m))
    # denominator: l K_{l+1/2} + y K_{l-1/2}, both positive
    log_den = log_k[:, 1:] + np.log(ls + yv * np.exp(log_k[:, :-1] - log_k[:, 1:]))
    log_t_ee = ln_half_pi + log_num - log_den
    return log_t_mm, log_t_ee


def t_scaled_log(l_max: int, y: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`t_scaled_log_vec` at one argument: arrays of length l_max."""
    log_t_mm, log_t_ee = t_scaled_log_vec(l_max, np.array([y]))
    return log_t_mm[0], log_t_ee[0]


def tmatrix_mm(l: int, kappa_R: float) -> float:
    """Exact M-mode T-matrix element; strictly negative for kappa_R > 0."""
    if kappa_R <= 0:
        raise ValueError("kappa_R must be > 0 (static limit: tmatrix_static_coeff)")
    if l < 1:
        raise ValueError("l must be >= 1")
    log_t_mm, _ = t_scaled_log(l, kappa_R)
    val = log_t_mm[l - 1] + 2.0 * kappa_R
    if val > 709.0:
        raise OverflowError(f"unscaled T overflows for kappa_R={kappa_R:g}")
    return -math.exp(val)


def tmatrix_ee(l: int, kappa_R: float) -> float:
    """Exact E-mode T-matrix element; strictly positive for kappa_R > 0."""
    if kappa_R <= 0:
        raise ValueError("kappa_R must be > 0 (static limit: tmatrix_static_coeff)")
    if l < 1:
        raise ValueError("l must be >= 1")
    _, log_t_ee = t_scaled_log(l, kappa_R)
    val = log_t_ee[l - 1] + 2.0 * kappa_R
    if val > 709.0:
        raise OverflowError(f"unscaled T overflows for kappa_R={kappa_R:g}")
    return math.exp(val)


def tmatrix_block(kappa_R: float, l_max: int) -> TMatrixBlock:
    """All diagonal elements up to l_max at a common argument."""
    log_mm, log_ee = t_scaled_log(l_max, kappa_R)
    return TMatrixBlock(kappa_R=kappa_R, l_max=l_max,
                        diag_mm=-np.exp(log_mm + 2.0 * kappa_R),
                        diag_ee=np.exp(log_ee + 2.0 * kappa_R))


@lru_cache(maxsize=None)
def tmatrix_static_coeff(l: int, pol: str = "M") -> float:
    """Leading small-argument coefficient c_{l,P} of T ~ c_{l,P} (kappa R)^{2l+1}.

    Computed once by a Richardson-extrapolated numeric limit of the exact
    element (steps x, x/2, x/4 with even-order error model) and cached.
    For the dipole: c_{1,M} = -1/3 and c_{1,E} = +2/3.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    pol = Polarization(pol).value
    if l > 80:
        raise OverflowError("static coefficient underflows float64 for l > 80")
    x0 = 4e-3
    vals = []
    for x in (x0, x0 / 2.0, x0 / 4.0):
        log_mm, log_ee = t_scaled_log(l, x)
        lg = (log_mm if pol == "M" else log_ee)[l - 1] + 2.0 * x
        sign = -1.0 if pol == "M" else 1.0
        vals.append(sign * math.exp(lg - (2 * l + 1) * math.log(x)))
    # error model c (1 + a x^2 + b x^3 + ...): kill x^2, then x^3
    r1h = (4.0 * vals[1] - vals[0]) / 3.0
    r1q = (4.0 * vals[2] - vals[1]) / 3.0
    return (8.0 * r1q - r1h) / 7.0


def dipole_tmatrix(q: float, R_over_d: float) -> tuple[float, float]:
    """Leading dipole elements ``(-(qR/d)^3/3, +2(qR/d)^3/3)``."""
    if q <= 0 or R_over_d <= 0:
        raise ValueError("q and R/d must be > 0")
    u = (q * R_over_d) ** 3
    return (-u / 3.0, 2.0 * u / 3.0)
