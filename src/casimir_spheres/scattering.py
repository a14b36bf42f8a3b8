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

import numpy as np
from scipy.special import gammaln

from . import specfun
from .errors import NonConvergenceError

# terms of the E-mode numerator series before it counts as not converged;
# the series runs only below y = 2 l + 4, so about 100 suffice at l_max 48
_EE_SERIES_MAX_TERMS = 600


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


def dipole_tmatrix(q: float, R_over_d: float) -> tuple[float, float]:
    """Leading dipole elements ``(-(qR/d)^3/3, +2(qR/d)^3/3)``."""
    if q <= 0 or R_over_d <= 0:
        raise ValueError("q and R/d must be > 0")
    u = (q * R_over_d) ** 3
    return (-u / 3.0, 2.0 * u / 3.0)
