r"""Proximity-force approximation for the short-distance regime.

The two-sphere energy at gap ``ell << R`` follows from the parallel-plate
free energy per unit area e_par(a, T) integrated over the facing surface
elements.  For perfect metals the transverse momentum integral is
analytic and the short-distance limit collapses to the double sum

.. math::
    E^{PFA}_T = -\frac{k_B T R}{4\ell} \sum_{m\ge 1} {\sum_n}'
        \frac{e^{-2nm\ell/\lambda_T}}{m^3}
    = -\frac{k_B T R}{4\ell}\,{\sum_n}' \mathrm{Li}_3(e^{-2nx}),
    \qquad x = \ell/\lambda_T,

whose n = 0 term is zeta(3)/2.  Entropy and force follow by
differentiation and reduce to the same sums with Li_2 companions.  The
x -> 0 and x -> infinity limits have exact coefficients and are served by
dedicated branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .constants import HBAR_C, K_B, ZETA_2, ZETA_3, thermal_wavelength

__all__ = ["PfaPoint", "plate_energy_density", "pfa_energy_sum",
           "pfa_finite_R_integral", "pfa_entropy", "pfa_force",
           "pfa_quantum_limit", "pfa_classical_limit",
           "pfa_entropy_classical",
           "li2", "li3", "pfa_energy_x", "pfa_entropy_x", "pfa_force_x"]


@dataclass(frozen=True)
class PfaPoint:
    """Surface gap ell, radius R, temperature T, and x = ell/lambda_T."""

    ell: float
    R: float
    T: float
    x: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("gap ell must be > 0")
        if self.R <= 0:
            raise ValueError("radius must be > 0")
        if self.T < 0:
            raise ValueError("temperature must be >= 0")
        if self.x is None:
            lam = thermal_wavelength(self.T)
            object.__setattr__(self, "x",
                               0.0 if math.isinf(lam) else self.ell / lam)


def _li_series(w: np.ndarray, s: int, terms: int = 200) -> np.ndarray:
    """Direct series sum_k w^k / k^s; accurate to ~1e-16 for |w| <= 0.82."""
    out = np.zeros_like(w)
    wk = np.ones_like(w)
    for k in range(1, terms + 1):
        wk = wk * w
        out += wk / k**s
    return out


def li2(w):
    """Dilogarithm on [0, 1]: series for small w, Euler reflection near 1."""
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if np.any((w < 0) | (w > 1)):
        raise ValueError("li2 implemented on [0, 1]")
    out = np.empty_like(w)
    lo = w <= 0.5
    out[lo] = _li_series(w[lo], 2, terms=64)
    hi = ~lo
    if np.any(hi):
        wh = w[hi]
        u = 1.0 - wh
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(u > 0, np.log(wh) * np.log(u), 0.0)
        out[hi] = ZETA_2 - cross - _li_series(u, 2, terms=64)
    return float(out[0]) if scalar else out


def li3(w):
    """Trilogarithm on [0, 1]: series for small w, Landen identity near 1.

    Li3(w) = zeta(3) + ln^3 w / 6 + zeta(2) ln w - ln^2 w ln(1-w)/2
             - Li3(1-w) - Li3(1 - 1/w); both companion arguments are small
    near w = 1, so their series converge fast.
    """
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    if np.any((w < 0) | (w > 1)):
        raise ValueError("li3 implemented on [0, 1]")
    out = np.empty_like(w)
    # reflection needs both 1-w and (1-w)/w small; switch at w = 0.82
    lo = w <= 0.82
    out[lo] = _li_series(w[lo], 3)
    hi = ~lo
    if np.any(hi):
        wh = w[hi]
        one = wh == 1.0
        u = 1.0 - wh
        v = np.where(one, 0.0, -u / np.maximum(wh, 0.5))
        with np.errstate(divide="ignore", invalid="ignore"):
            lw = np.where(one, 0.0, np.log(wh))
            lu = np.where(one, 0.0, np.log(np.maximum(u, 1e-320)))
        res = (ZETA_3 + lw**3 / 6.0 + ZETA_2 * lw - 0.5 * lw**2 * lu
               - _li_series(u, 3, terms=64) - _li_series(v, 3, terms=64))
        out[hi] = np.where(one, ZETA_3, res)
    return float(out[0]) if scalar else out


def plate_energy_density(ell_plate: float, T: float) -> float:
    """Parallel-plate free energy per unit area at plate distance ell_plate.

    Perfect-metal specialisation: the transverse-momentum integral of each
    (n, m) term is analytic, leaving

        e_par = -(k_B T / 4 pi a^2) sum_m m^{-3}
                [ coth(beta_m)/2 + beta_m / (2 sinh^2 beta_m) ],
        beta_m = m a / lambda_T,

    with the T = 0 branch -hbar c pi^2 / (720 a^3).
    """
    a = ell_plate
    if a <= 0:
        raise ValueError("plate distance must be > 0")
    if T < 0:
        raise ValueError("temperature must be >= 0")
    if T == 0:
        return -HBAR_C * math.pi**2 / (720.0 * a**3)
    lam = thermal_wavelength(T)
    beta1 = a / lam
    # coth(b)/2 + b/(2 sinh^2 b) = 1/2 + [e^{-b}/(2 sinh b) + b/(2 sinh^2 b)]:
    # the constant part sums to zeta(3), the rest decays exponentially in m
    m_max = int(44.0 / beta1) + 8
    m = np.arange(1, m_max + 1, dtype=float)
    b = m * beta1
    small = b < 350.0
    rest = np.zeros_like(b)
    bs = b[small]
    sh = np.sinh(bs)
    rest[small] = np.exp(-bs) / (2.0 * sh) + bs / (2.0 * sh**2)
    total = 0.5 * ZETA_3 + float(np.sum(rest / m**3))
    return -K_B * T / (4.0 * math.pi * a**2) * total


def pfa_energy_x(x: float) -> float:
    """Dimensionless PFA sum ``sum'_n Li3(e^{-2nx})`` including the half n=0 term."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        raise ValueError("x = 0 served by the quantum limit branch")
    n_max = int(max(1, math.ceil(40.0 / (2.0 * x))))
    n = np.arange(1, n_max + 1, dtype=float)
    return 0.5 * ZETA_3 + float(np.sum(li3(np.exp(-2.0 * n * x))))


def pfa_entropy_x(x: float) -> float:
    """Dimensionless entropy sum sum_m m^{-3} [sinh(2mx)/2 - mx] / (2 sinh^2(mx)).

    Equals ``sum'_n [Li3(e^{-2nx}) - 2nx Li2(e^{-2nx})]`` after regrouping;
    positive for every x > 0 term by term.
    """
    if x <= 0:
        raise ValueError("x must be > 0")
    # h(u) = [sinh(2u)/2 - u]/(2 sinh^2 u) = 1/2 + [sinh(u) e^{-u} - u]/(2 sinh^2 u);
    # the 1/2 parts sum to zeta(3)/2, the rest decays exponentially in m
    m_max = int(44.0 / x) + 8
    m = np.arange(1, m_max + 1, dtype=float)
    u = m * x
    small = u < 350.0
    rest = np.zeros_like(u)
    us = u[small]
    sh = np.sinh(us)
    rest[small] = (sh * np.exp(-us) - us) / (2.0 * sh**2)
    return 0.5 * ZETA_3 + float(np.sum(rest / m**3))


def pfa_force_x(x: float) -> float:
    """Dimensionless force sum ``sum'_n [Li3 + 2nx Li2](e^{-2nx})``."""
    if x <= 0:
        raise ValueError("x must be > 0")
    m_max = int(44.0 / x) + 8
    m = np.arange(1, m_max + 1, dtype=float)
    u = m * x
    small = u < 350.0
    rest = np.zeros_like(u)
    us = u[small]
    sh = np.sinh(us)
    rest[small] = (sh * np.exp(-us) + us) / (2.0 * sh**2)
    return 0.5 * ZETA_3 + float(np.sum(rest / m**3))


def pfa_energy_sum(point: PfaPoint) -> float:
    """Short-distance free energy -(k_B T R / 4 ell) sum'_n Li3(e^{-2nx}).

    T = 0 dispatches to the quantum limit branch.
    """
    if point.T == 0:
        return pfa_quantum_limit(point.ell, point.R)
    return -K_B * point.T * point.R / (4.0 * point.ell) * pfa_energy_x(point.x)


def pfa_quantum_limit(ell: float, R: float) -> float:
    """Zero-temperature PFA energy -hbar c pi^3 R / (1440 ell^2)."""
    return -HBAR_C * math.pi**3 * R / (1440.0 * ell**2)


def pfa_classical_limit(ell: float, R: float, T: float) -> float:
    """High-temperature PFA energy -k_B T R zeta(3) / (8 ell)."""
    return -K_B * T * R * ZETA_3 / (8.0 * ell)


def pfa_entropy(point: PfaPoint) -> float:
    """Short-distance entropy (k_B R / 4 ell) x dimensionless sum; >= 0 always."""
    if point.T == 0:
        return 0.0
    return K_B * point.R / (4.0 * point.ell) * pfa_entropy_x(point.x)


def pfa_entropy_classical(ell: float, R: float) -> float:
    """High-temperature entropy k_B R zeta(3) / (8 ell)."""
    return K_B * R * ZETA_3 / (8.0 * ell)


def pfa_force(point: PfaPoint) -> float:
    """Short-distance force -(k_B T R / 4 ell^2) x dimensionless sum; < 0 always."""
    if point.T == 0:
        return -HBAR_C * math.pi**3 * point.R / (720.0 * point.ell**3)
    return -K_B * point.T * point.R / (4.0 * point.ell**2) * pfa_force_x(point.x)


def pfa_finite_R_integral(ell: float, R: float, T: float) -> float:
    """Finite-radius PFA energy 2 pi R^2 int_0^1 dt (1-t) e_par(ell + 2Rt).

    The (1-t) weight vanishes at t = 1 (sphere equator) and the integral
    converges to :func:`pfa_energy_sum` as ell/R -> 0.  The overall sign is
    fixed by the known negative zero-temperature limit.
    """
    if ell <= 0 or R <= 0:
        raise ValueError("ell and R must be > 0")

    def integrand(t: float) -> float:
        return (1.0 - t) * plate_energy_density(ell + 2.0 * R * t, T)

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-300, epsrel=1e-11, limit=200)
    return 2.0 * math.pi * R**2 * val
