"""Field-expansion validation of the translation matrix.

The translation block is, by definition, the coefficient table re-expanding
outgoing vector multipole waves about a shifted origin in regular waves.
This test measures those coefficients directly: evaluate the translated
fields on a sphere around the new origin, project onto orthonormal vector
harmonics by Gauss-Legendre quadrature, and compare entry by entry.

It is the only check sensitive to the destination-side sign gauge of the
couplings (invisible to the dipole sector and to composition identities),
so it pins the convention that the round-trip determinant depends on.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from casimir_spheres import specfun
from oracles.translation import direct_block


def sph_i(p_max, x):
    return np.exp(specfun.log_scaled_iv_ladder_vec(p_max, np.array([x]))[0]
                  + 0.5 * (math.log(math.pi / 2) - math.log(x)) + x)


def sph_k(p_max, x):
    return np.exp(specfun.log_scaled_kv_ladder_vec(p_max, np.array([x]))[0]
                  + 0.5 * (math.log(math.pi / 2) - math.log(x)) - x)


def norm_plm_and_dtheta(l_max, m, ct):
    """Fully normalized associated Legendre bar-P_l^m (so that
    Y_lm = bar-P_l^m e^{im phi} is orthonormal) and theta-derivatives,
    l = 0..l_max, by the standard stable upward recurrence."""
    st = math.sqrt(max(0.0, 1.0 - ct * ct))
    p = np.zeros(l_max + 2)
    if m == 0:
        pmm = math.sqrt(1.0 / (4.0 * math.pi))
    elif st == 0.0:
        pmm = 0.0
    else:
        # bar-P_mm = (-1)^m sqrt((2m+1)/(4 pi) * (2m-1)!!/(2m)!!) st^m
        ln_ratio = sum(math.log(2 * k - 1) - math.log(2 * k)
                       for k in range(1, m + 1))
        ln = 0.5 * (math.log(2 * m + 1) - math.log(4 * math.pi) + ln_ratio) \
            + m * math.log(st)
        pmm = ((-1) ** m) * math.exp(ln)
    p[m] = pmm
    if l_max >= m + 1:
        p[m + 1] = ct * math.sqrt(2.0 * m + 3.0) * pmm
    for l in range(m + 1, l_max):
        a = math.sqrt((2.0 * l + 1.0) * (2.0 * l + 3.0)
                      / ((l + 1.0 - m) * (l + 1.0 + m)))
        b = math.sqrt((2.0 * l + 3.0) * (l - m) * (l + m)
                      / ((2.0 * l - 1.0) * (l + 1.0 - m) * (l + 1.0 + m)))
        p[l + 1] = a * ct * p[l] - b * p[l - 1]
    dp = np.zeros(l_max + 2)
    if st > 1e-12:
        for l in range(m, l_max + 1):
            if l > m:
                g = math.sqrt((2.0 * l + 1.0) / (2.0 * l - 1.0)
                              * (l - m) * (l + m))
                dp[l] = (l * ct * p[l] - g * p[l - 1]) / st
            else:
                dp[l] = l * ct * p[l] / st
    return p[: l_max + 1], dp[: l_max + 1]


def vector_wave(rho, th, kappa, l, m, kind, radial):
    """(r, theta, phi) components of M/N waves; e^{im phi} omitted."""
    x = kappa * rho
    lad = sph_i(l + 1, x) if radial == "regular" else sph_k(l + 1, x)
    f = lad[l]
    if radial == "regular":
        fp = lad[l - 1] - (l + 1) / x * lad[l]
    else:
        fp = -lad[l - 1] - (l + 1) / x * lad[l]
    pbar, dpth = norm_plm_and_dtheta(l, m, math.cos(th))
    y, dy = pbar[l], dpth[l]
    st = math.sin(th)
    inv = 1.0 / math.sqrt(l * (l + 1))
    psi_t = inv * dy
    psi_p = inv * ((1j * m * y / st) if st > 1e-12 else 0.0)
    phi_t = -psi_p
    phi_p = psi_t
    if kind == "M":
        return np.array([0.0, f * phi_t, f * phi_p])
    rad = math.sqrt(l * (l + 1)) * f / x * y
    tang = f / x + fp
    return np.array([rad, tang * psi_t, tang * psi_p])


def measure_block(m, x_trans, l_max, n_theta=160):
    """Measured translation entries over channels (P, l), full 2n x 2n."""
    kappa, d = 1.0, x_trans
    rho0 = 0.35 * d
    nodes, weights = leggauss(n_theta)
    thetas = np.arccos(nodes)
    l0 = max(1, m)
    n = l_max - l0 + 1
    lad_i0 = sph_i(l_max + 1, kappa * rho0)
    meas = np.zeros((2 * n, 2 * n), dtype=complex)
    for s_idx, kind_src in ((0, "M"), (1, "N")):
        for l in range(l0, l_max + 1):
            # translated source field, rotated into the local frame
            f2 = np.zeros((n_theta, 3), dtype=complex)
            for i, th in enumerate(thetas):
                zz = rho0 * math.cos(th) + d
                xx = rho0 * math.sin(th)
                r1 = math.hypot(xx, zz)
                th1 = math.atan2(xx, zz)
                fr = vector_wave(r1, th1, kappa, l, m, kind_src, "outgoing")
                beta = th1 - th
                cb, sb = math.cos(beta), math.sin(beta)
                f2[i] = [cb * fr[0] - sb * fr[1], sb * fr[0] + cb * fr[1], fr[2]]
            for lp in range(l0, l_max + 1):
                aM = 0.0 + 0j
                aN = 0.0 + 0j
                for i, th in enumerate(thetas):
                    pbar, dpth = norm_plm_and_dtheta(lp, m, math.cos(th))
                    y, dy = pbar[lp], dpth[lp]
                    st = math.sin(th)
                    inv = 1.0 / math.sqrt(lp * (lp + 1))
                    psi_t = inv * dy
                    psi_p = inv * ((1j * m * y / st) if st > 1e-12 else 0.0)
                    w = weights[i] * 2.0 * math.pi
                    aM += w * (np.conj(-psi_p) * f2[i, 1] + np.conj(psi_t) * f2[i, 2])
                    aN += w * np.conj(y) * f2[i, 0]
                x0 = kappa * rho0
                row = s_idx * n + (l - l0)
                meas[row, lp - l0] = aM / lad_i0[lp]
                meas[row, n + lp - l0] = aN * x0 / (math.sqrt(lp * (lp + 1))
                                                    * lad_i0[lp])
    return meas


@pytest.mark.parametrize("m", [0, 1, 2])
def test_translation_matches_field_expansion(m):
    x = 1.0
    l_max = 5
    meas = measure_block(m, x, l_max)
    mine = direct_block(m, x, l_max) * math.exp(-x)
    n = mine.shape[0] // 2
    # convention map: measured = (pi/2) * Phi^-1 mine Phi with Phi = i on E
    phase = np.concatenate([np.ones(n), 1j * np.ones(n)])
    expect = (math.pi / 2.0) * np.conj(phase)[:, None] * mine * phase[None, :]
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(meas - expect)) < 5e-7 * scale


def test_field_expansion_reconstructs_pointwise():
    """The measured expansion must reproduce the translated field itself."""
    m, x, l_max = 1, 1.0, 10
    kappa, d = 1.0, x
    meas = measure_block(m, x, l_max)
    n = l_max - max(1, m) + 1
    rho_t, th_t = 0.22 * d, 1.1
    zz = rho_t * math.cos(th_t) + d
    xx = rho_t * math.sin(th_t)
    r1, th1 = math.hypot(xx, zz), math.atan2(xx, zz)
    direct = vector_wave(r1, th1, kappa, 2, m, "M", "outgoing")
    beta = th1 - th_t
    cb, sb = math.cos(beta), math.sin(beta)
    direct = np.array([cb * direct[0] - sb * direct[1],
                       sb * direct[0] + cb * direct[1], direct[2]])
    rec = np.zeros(3, dtype=complex)
    row = 0 * n + (2 - 1)
    for lp in range(1, l_max + 1):
        rec += meas[row, lp - 1] * vector_wave(rho_t, th_t, kappa, lp, m,
                                               "M", "regular")
        rec += meas[row, n + lp - 1] * vector_wave(rho_t, th_t, kappa, lp, m,
                                                   "N", "regular")
    assert np.max(np.abs(rec - direct)) < 1e-5 * np.max(np.abs(direct))
