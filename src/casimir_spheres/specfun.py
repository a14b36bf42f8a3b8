r"""Exponentially scaled modified Bessel functions of half-integer order.

Every T-matrix and translation element in the package reduces to the pair

.. math::
    \hat I_{l+1/2}(x) = I_{l+1/2}(x)\,e^{-x}, \qquad
    \hat K_{l+1/2}(x) = K_{l+1/2}(x)\,e^{+x},

evaluated for ``l = 0..l_max`` at a common argument.  Only scaled values
cross module boundaries: the raw functions overflow/underflow long before
the physically relevant products do.

The ladders are computed by three-term recurrences in the stable
direction: forward (upward in order) for K, backward Miller recursion for
I seeded ``15 + ceil(x)`` orders above the requested one.  Each ladder has
one implementation, vectorised over its arguments: a batch of frequencies
runs every recurrence step as one array operation, and a single argument
is a batch of one.  The ladders are carried as natural logarithms
with explicit renormalisation, so no intermediate ever leaves the float64
range for any order/argument combination.
"""

from __future__ import annotations

import math

import numpy as np

# renormalisation threshold for recurrences carried in linear space
_RENORM = 1e280
_LN_RENORM = math.log(_RENORM)


def log_scaled_iv_ladder_vec(l_max: int, x: np.ndarray) -> np.ndarray:
    """Natural log of ``I_{l+1/2}(x) e^{-x}`` for l = 0..l_max, shape
    (len(x), l_max + 1).

    Backward Miller recursion with exponent tracking, normalised against
    ``I_{1/2}(x) e^{-x} = (1 - e^{-2x}) / sqrt(2 pi x)``; accurate for any
    float64 ``x > 0`` and order, including combinations whose scaled values
    themselves underflow.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("arguments must be > 0")
    l_start = l_max + 15 + math.ceil(min(float(x.max(initial=0.0)), 1e4))
    nq = x.shape[0]
    logf = np.empty((nq, l_start + 1))
    f_hi = np.zeros(nq)
    f_lo = np.full(nq, 1e-300)
    shift = np.zeros(nq)
    logf[:, l_start] = np.log(f_lo) + shift
    inv_x = 1.0 / x
    for l in range(l_start, 0, -1):
        f_hi, f_lo = f_lo, f_hi + ((2 * l + 1) * inv_x) * f_lo
        mask = f_lo > _RENORM
        if np.any(mask):
            f_lo[mask] *= 1e-280
            f_hi[mask] *= 1e-280
            shift[mask] += _LN_RENORM
        logf[:, l - 1] = np.log(f_lo) + shift
    log_i0 = np.log1p(-np.exp(-2.0 * x)) - 0.5 * np.log(2.0 * np.pi * x)
    return logf[:, : l_max + 1] - logf[:, :1] + log_i0[:, None]


def log_scaled_kv_ladder_vec(l_max: int, x: np.ndarray) -> np.ndarray:
    """Natural log of ``K_{l+1/2}(x) e^{+x}`` for l = 0..l_max, shape
    (len(x), l_max + 1).

    Forward recurrence (stable for K) with exponent tracking.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("arguments must be > 0")
    nq = x.shape[0]
    logk = np.empty((nq, l_max + 1))
    k_lo = np.sqrt(np.pi / (2.0 * x))
    logk[:, 0] = np.log(k_lo)
    if l_max == 0:
        return logk
    k_hi = k_lo * (1.0 + 1.0 / x)
    shift = np.zeros(nq)
    logk[:, 1] = np.log(k_hi)
    inv_x = 1.0 / x
    for l in range(1, l_max):
        k_lo, k_hi = k_hi, k_lo + ((2 * l + 1) * inv_x) * k_hi
        mask = k_hi > _RENORM
        if np.any(mask):
            k_hi[mask] *= 1e-280
            k_lo[mask] *= 1e-280
            shift[mask] += _LN_RENORM
        logk[:, l + 1] = np.log(k_hi) + shift
    return logk


def log_khat_spherical_ladder_vec(p_max: int, x: np.ndarray) -> np.ndarray:
    r"""Natural log of the power-scaled modified spherical Bessel function
    :math:`\hat\kappa_p(x) = (2/\pi)\,x^{p+1} e^{x} k_p(x)` for p = 0..p_max,
    shape (len(x), p_max + 1).

    :math:`\hat\kappa_0 = 1`, :math:`\hat\kappa_1 = 1 + x`, and
    :math:`\hat\kappa_{p+1} = x^2 \hat\kappa_{p-1} + (2p+1)\hat\kappa_p`
    (forward stable, all terms positive).  The true function is recovered as
    ``k_p(x) = (pi/2) e^{-x} x^{-(p+1)} exp(log_khat[:, p])``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("arguments must be > 0")
    nq = x.shape[0]
    logk = np.empty((nq, p_max + 1))
    lo = np.ones(nq)
    logk[:, 0] = 0.0
    if p_max == 0:
        return logk
    hi = 1.0 + x
    shift = np.zeros(nq)
    logk[:, 1] = np.log(hi)
    x2 = x * x
    for p in range(1, p_max):
        lo, hi = hi, x2 * lo + (2 * p + 1) * hi
        mask = hi > _RENORM
        if np.any(mask):
            hi[mask] *= 1e-280
            lo[mask] *= 1e-280
            shift[mask] += _LN_RENORM
        logk[:, p + 1] = np.log(hi) + shift
    return logk
