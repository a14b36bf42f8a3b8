r"""Thermodynamic post-processing of the full multiscattering energy.

Entropy and force come from numerical differentiation of the free energy
(central differences with Richardson extrapolation), negative-entropy
intervals from sign scans of S/S_cl on z-grids, and low-temperature
power laws S ~ T^alpha from least-squares fits of log|S| against log z.

The classical normalisation S_cl is the exact high-temperature limit of
the numerics, obtained from the n = 0 static term: E -> k_B T g(0)/2, so
S_cl = -k_B g(0)/2 at every aspect ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, pfa
from .constants import HBAR_C, K_B
from .errors import (BracketingFailureError, GridTooCoarseError,
                     StepUnderflowError)
from .geometry import Geometry, ThermalPoint, energy_scale_ad
from .matsubara import DeterminantTable, _sum_l_max, free_energy

__all__ = ["ThermoCurve", "EntropyFeatureReport", "DerivativeEstimate",
           "entropy_numeric", "force_numeric", "cross_derivative_check",
           "cross_derivative_check_asymptotic", "scan_entropy_features",
           "find_disappearance_threshold", "closed_form_curve",
           "build_thermo_curve"]


@dataclass(frozen=True)
class DerivativeEstimate:
    """Richardson-extrapolated derivative with an attached error estimate."""

    value: float
    error_estimate: float
    step: float


@dataclass(frozen=True)
class EntropyFeatureReport:
    """Negative-entropy diagnostics of one S/S_cl curve."""

    r: float
    has_negative_interval: bool
    interval: tuple | None
    min_S_over_Scl: float
    low_T_exponent: float


@dataclass(frozen=True)
class ThermoCurve:
    """Sampled (z, E_ad, S_ad, F_ad) curve with provenance.

    ``table`` is the determinant table at r of a numeric curve, kept so that
    later scans at the same (r, tol) need not rebuild it.
    """

    r: float
    z: np.ndarray
    e_ad: np.ndarray
    s_ad: np.ndarray
    f_ad: np.ndarray
    method: str
    diff_step_policy: dict = field(default_factory=dict)
    table: DeterminantTable | None = field(default=None, repr=False,
                                           compare=False)


def _richardson4(f, x: float, h: float) -> DerivativeEstimate:
    """Order-4 first derivative from central differences at steps h and h/2."""
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_h2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    val = (4.0 * d_h2 - d_h) / 3.0
    return DerivativeEstimate(value=val, error_estimate=abs(val - d_h2), step=h)


def entropy_numeric(geometry: Geometry, thermal: ThermalPoint,
                    tol: float = 1e-9) -> DerivativeEstimate:
    """S = -dE/dT by Richardson-extrapolated central differences (J/K).

    Step h = max(1e-3 T, T_floor) with a floor tied to z = 1e-4; raises
    StepUnderflow when the temperature cannot support the stencil.
    """
    T = thermal.T
    if T <= 0:
        raise StepUnderflowError("entropy_numeric requires T > 0")
    from .constants import temperature_from_z
    t_floor = temperature_from_z(1e-4, geometry.d)
    h = max(1e-3 * T, t_floor)
    if T - h <= 0:
        raise StepUnderflowError(
            f"temperature T={T:g} below the differentiation floor {h:g}")
    hint = _sum_l_max(geometry.r, max(thermal.z, 1e-3), tol)

    def e_of_t(t: float) -> float:
        return free_energy(geometry, ThermalPoint.from_temperature(t, geometry),
                           tol, l_max_hint=hint).energy

    d = _richardson4(e_of_t, T, h)
    return DerivativeEstimate(value=-d.value, error_estimate=d.error_estimate,
                              step=h)


def force_numeric(geometry: Geometry, thermal: ThermalPoint,
                  tol: float = 1e-9) -> DerivativeEstimate:
    """F = -dE/dd by central differences at fixed T and R (newtons)."""
    d0 = geometry.d
    h = min(1e-3 * d0, 0.2 * geometry.ell)
    hint = _sum_l_max(geometry.r, max(thermal.z, 1e-3), tol)

    def e_of_d(d: float) -> float:
        geo = Geometry(R=geometry.R, d=d)
        return free_energy(geo, ThermalPoint.from_temperature(thermal.T, geo),
                           tol, l_max_hint=hint).energy

    der = _richardson4(e_of_d, d0, h)
    return DerivativeEstimate(value=-der.value, error_estimate=der.error_estimate,
                              step=h)


def cross_derivative_check(geometry: Geometry, thermal: ThermalPoint,
                           tol: float = 1e-8) -> tuple[float, float]:
    """Mixed-partial identity dF/dT = dS/dd, both sides by finite differences.

    Returns (lhs, rhs); for a smooth free energy they agree to the
    differentiation accuracy.
    """
    T, d0 = thermal.T, geometry.d
    h_t = 2e-3 * T
    h_d = min(2e-3 * d0, 0.2 * geometry.ell)

    def force_at(t: float) -> float:
        return force_numeric(geometry, ThermalPoint.from_temperature(t, geometry),
                             tol).value

    def entropy_at(d: float) -> float:
        geo = Geometry(R=geometry.R, d=d)
        return entropy_numeric(geo, ThermalPoint.from_temperature(T, geo),
                               tol).value

    lhs = (force_at(T + h_t) - force_at(T - h_t)) / (2.0 * h_t)
    rhs = (entropy_at(d0 + h_d) - entropy_at(d0 - h_d)) / (2.0 * h_d)
    return lhs, rhs


def cross_derivative_check_asymptotic(z: float) -> tuple[float, float]:
    """Same identity on the closed-form branch, in adimensional variables.

    lhs: the force-temperature side, dF_ad/dz through the analytic force
    chain; rhs: the entropy-separation side, z S_ad' - 6 S_ad with S_ad'
    from an eighth-order stencil on the closed-form entropy.  The stencil
    lives on the entropy side because S and its derivative share one scale
    there, whereas F is ~4000x larger than its derivative near the force
    extremum and differencing it cannot reach 1e-10 in double precision.
    """
    lhs = float(asymptotics.f_ad_prime(z))
    h = 0.012 * max(z, 1.0)
    w = np.array([1.0 / 280.0, -4.0 / 105.0, 1.0 / 5.0, -4.0 / 5.0,
                  4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])
    off = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
    s_prime = float(np.dot(w, asymptotics.s_ad(z + off * h))) / h
    rhs = z * s_prime - 6.0 * float(asymptotics.s_ad(z))
    return lhs, rhs


def _fit_low_T_exponent(z: np.ndarray, s: np.ndarray) -> float:
    """Least-squares slope of log|S| vs log z over the decade with the
    smallest fit residual; windows slide over the low-z half of the grid."""
    ok = (s != 0) & np.isfinite(s)
    z, s = z[ok], np.abs(s[ok])
    lz, ls = np.log(z), np.log(s)
    best = (math.inf, math.nan)
    for i0 in range(0, len(z)):
        z_hi = z[i0] * 10.0
        i1 = int(np.searchsorted(z, z_hi))
        if i1 - i0 < 8:
            continue
        if z[i0] > z[-1] / 10.0:
            break
        a, b = np.polyfit(lz[i0:i1], ls[i0:i1], 1)
        res = float(np.sqrt(np.mean((ls[i0:i1] - (a * lz[i0:i1] + b))**2)))
        if res < best[0]:
            best = (res, float(a))
    if math.isnan(best[1]):
        raise GridTooCoarseError("no decade-wide window available for the fit")
    return best[1]


def _refine_zero(fun, z_lo: float, z_hi: float, resolution: float = 1e-3) -> float:
    f_lo = fun(z_lo)
    while z_hi - z_lo > resolution:
        mid = 0.5 * (z_lo + z_hi)
        f_mid = fun(mid)
        if (f_lo < 0) == (f_mid < 0):
            z_lo, f_lo = mid, f_mid
        else:
            z_hi = mid
    return 0.5 * (z_lo + z_hi)


def scan_entropy_features(r: float, z_grid: np.ndarray | None = None,
                          branch: str = "numeric", tol: float = 1e-9,
                          table: DeterminantTable | None = None,
                          sign_floor: float = 3e-6,
                          ) -> EntropyFeatureReport:
    """S/S_cl scan: negative-entropy interval and low-T power law.

    ``branch='numeric'`` evaluates the full multiscattering entropy through
    a determinant table at aspect ratio r; ``'asymptotic'`` and ``'pfa'``
    use the corresponding closed forms (the PFA scan maps z to its natural
    variable x = z (1 - 2r)).  The negative interval is located by
    sign-change bisection to z-resolution 1e-3.  Samples with
    |S/S_cl| below ``sign_floor`` carry no sign information (numerical
    noise in the deep low-temperature tail) and inherit the neighbouring
    definite sign.
    """
    if not 0.0 < r < 0.5:
        raise ValueError("aspect ratio r must lie in (0, 1/2)")
    if z_grid is None:
        z_grid = np.geomspace(0.05, 20.0, 200)
    z_grid = np.asarray(z_grid, dtype=float)

    if branch == "numeric":
        tab = table if table is not None else DeterminantTable(r, tol=tol)
        s_cl = -tab.g0 / (2.0 * r**6)
        s_fun = lambda z: tab.s_ad(z) / s_cl
    elif branch == "asymptotic":
        s_cl = 15.0 / 4.0
        s_fun = lambda z: float(asymptotics.s_ad(z)) / s_cl
    elif branch == "pfa":
        scale = 1.0 - 2.0 * r
        s_cl = 0.5 * pfa.ZETA_3
        s_fun = lambda z: pfa.pfa_entropy_x(z * scale) / s_cl
    else:
        raise ValueError("branch must be 'numeric', 'asymptotic' or 'pfa'")

    ratio = np.array([s_fun(z) for z in z_grid])
    definite = np.abs(ratio) > sign_floor
    if not np.any(definite):
        raise GridTooCoarseError("no sample rises above the sign floor")
    signs = np.sign(ratio)
    # sub-floor samples inherit the next definite sign to their right (the
    # left end of the grid sits in the noise-dominated low-T tail)
    last = signs[definite][-1]
    for i in range(len(signs) - 1, -1, -1):
        if definite[i]:
            last = signs[i]
        else:
            signs[i] = last
    changes = np.nonzero(np.diff(signs) != 0)[0]
    if len(changes) not in (0, 2):
        raise GridTooCoarseError(
            f"ambiguous sign structure: {len(changes)} sign changes on the grid")
    if len(changes) == 0:
        has_neg = bool(np.any(ratio[definite] < 0))
        interval = None
        if has_neg:
            raise GridTooCoarseError("negative samples without bracketing zeros")
        # sub-floor samples are noise; report the definite minimum so the
        # sign of min_S_over_Scl stays consistent with the verdict
        min_ratio = float(np.min(ratio[definite]))
    else:
        has_neg = True
        i1, i2 = changes
        z1 = _refine_zero(s_fun, z_grid[i1], z_grid[i1 + 1])
        z2 = _refine_zero(s_fun, z_grid[i2], z_grid[i2 + 1])
        interval = (z1, z2)
        min_ratio = float(np.min(ratio))
    exponent = _fit_low_T_exponent(z_grid, ratio)
    return EntropyFeatureReport(r=r, has_negative_interval=has_neg,
                                interval=interval, min_S_over_Scl=min_ratio,
                                low_T_exponent=exponent)


def find_disappearance_threshold(r_lo: float, r_hi: float, tol_r: float = 2e-3,
                                 z_grid: np.ndarray | None = None,
                                 tol: float = 1e-9) -> float:
    """Bisect in aspect ratio for the disappearance of the negative interval.

    Requires the feature present at ``r_lo`` and absent at ``r_hi``.
    """
    lo = scan_entropy_features(r_lo, z_grid, tol=tol)
    hi = scan_entropy_features(r_hi, z_grid, tol=tol)
    if not (lo.has_negative_interval and not hi.has_negative_interval):
        raise BracketingFailureError(
            f"bracket invalid: feature at r={r_lo} is {lo.has_negative_interval}, "
            f"at r={r_hi} is {hi.has_negative_interval}")
    while r_hi - r_lo > tol_r:
        mid = 0.5 * (r_lo + r_hi)
        rep = scan_entropy_features(mid, z_grid, tol=tol)
        if rep.has_negative_interval:
            r_lo = mid
        else:
            r_hi = mid
    return 0.5 * (r_lo + r_hi)


def closed_form_curve(geometry: Geometry, z: np.ndarray, branch: str
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E_ad, S_ad, F_ad) on a z grid from a closed-form branch.

    ``'asymptotic'`` is the large-separation expansion, a function of z
    alone.  ``'pfa'`` evaluates the proximity-force approximation at the
    gap, radius and temperatures of ``geometry`` and converts it to the
    adimensional E_ad, S_ad and F_ad of that geometry.
    """
    z = np.asarray(z, dtype=float)
    if branch == "asymptotic":
        return asymptotics.e_ad(z), asymptotics.s_ad(z), asymptotics.f_ad(z)
    if branch != "pfa":
        raise ValueError("branch must be 'asymptotic' or 'pfa'")
    d, R = geometry.d, geometry.R
    conv_e = energy_scale_ad(geometry)
    rows = []
    for zi in z:
        pt = pfa.PfaPoint(ell=geometry.ell, R=R,
                          T=ThermalPoint.from_z(zi, geometry).T)
        rows.append((pfa.pfa_energy_sum(pt) / conv_e,
                     pfa.pfa_entropy(pt) * d**6 / (K_B * R**6),
                     pfa.pfa_force(pt) * 2.0 * math.pi * d**8 / (HBAR_C * R**6)))
    return tuple(map(np.array, zip(*rows)))


def build_thermo_curve(r: float, z_grid: np.ndarray, branch: str = "numeric",
                       tol: float = 1e-9, with_force: bool = True,
                       delta_r: float = 1e-3,
                       table_kwargs: dict | None = None) -> ThermoCurve:
    """Sampled thermodynamic curve at fixed aspect ratio.

    On the numeric branch the force requires the aspect-ratio derivative of
    the energy, obtained from two auxiliary determinant tables at
    r (1 +- delta_r):  F_ad = 7 E_ad + z S_ad + r dE_ad/dr.
    ``table_kwargs`` tune the underlying determinant tables (grid sizes,
    refinement depth) for quick sign-level scans.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    if np.any(np.diff(z_grid) <= 0):
        raise ValueError("z grid must be strictly increasing")
    policy: dict = {"branch": branch}
    tab = None
    if branch in ("asymptotic", "pfa"):
        e, s, f = closed_form_curve(Geometry.from_ratio(r), z_grid, branch)
    elif branch == "numeric":
        kw = dict(table_kwargs or {})
        tab = DeterminantTable(r, tol=tol, **kw)
        policy["l_max"] = tab.l_max_used
        e = np.array([tab.e_ad(z) for z in z_grid])
        s = np.array([tab.s_ad(z) for z in z_grid])
        if with_force:
            tab_lo = DeterminantTable(r * (1.0 - delta_r), tol=tol, **kw)
            tab_hi = DeterminantTable(r * (1.0 + delta_r), tol=tol, **kw)
            policy["delta_r"] = delta_r
            dedr = np.array([
                (tab_hi.e_ad(z) - tab_lo.e_ad(z)) / (2.0 * delta_r * r)
                for z in z_grid])
            f = 7.0 * e + z_grid * s + r * dedr
        else:
            f = np.full_like(e, np.nan)
    else:
        raise ValueError("branch must be 'numeric', 'asymptotic' or 'pfa'")
    return ThermoCurve(r=r, z=z_grid, e_ad=e, s_ad=s, f_ad=f, method=branch,
                       diff_step_policy=policy, table=tab)
