"""Independent fixed-l_max round-trip determinant.

Direct, unscaled assembly: T elements and modified spherical Bessel
functions from mpmath, Wigner symbols from sympy's exact rational
implementation, the determinant from mpmath's generic LU.  No code or
scaling tricks are shared with the production path.

At q = 0 the same assembly runs on the leading small-q terms:
T_l -> c_l y^{2l+1} from the leading powers of I and K (mpmath gamma), and
k_p -> (pi/2) (2p-1)!! q^{-(p+1)}, so the preserving coupling U_{l,l'}
leads with q^{-(l+l'+1)} from p = l + l' alone and the mixing one is an
order of q smaller.  The block of N is then proportional to q^{l-l''}
at (l, l''), a similarity by diag(q^l) that leaves det(I - N) unchanged,
so the q powers are dropped and the coefficients assembled as they are.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
from sympy.physics.wigner import wigner_3j

mp.mp.dps = 50


@lru_cache(maxsize=None)
def _w3j(l1: int, l2: int, p: int, m1: int, m2: int, m3: int):
    return mp.mpf(str(wigner_3j(l1, l2, p, m1, m2, m3).evalf(40)))


def _k_sph(p, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselk(p + mp.mpf(1) / 2, x)


def _t_mm(l, y):
    return -mp.pi / 2 * mp.besseli(l + mp.mpf(1) / 2, y) \
        / mp.besselk(l + mp.mpf(1) / 2, y)


def _t_ee(l, y):
    num = l * mp.besseli(l + mp.mpf(1) / 2, y) - y * mp.besseli(l - mp.mpf(1) / 2, y)
    den = l * mp.besselk(l + mp.mpf(1) / 2, y) + y * mp.besselk(l - mp.mpf(1) / 2, y)
    return -mp.pi / 2 * num / den


def _t_static(l, r):
    """(T_MM, T_EE) / q^{2l+1} as q -> 0 at y = q r: the leading terms
    I_nu(y) ~ (y/2)^nu / Gamma(nu + 1) and K_nu(y) ~ Gamma(nu) (2/y)^nu / 2;
    y K_{l-1/2} is y^2 below l K_{l+1/2} and drops out."""
    nu = l + mp.mpf(1) / 2
    i_hi = mp.mpf(2)**(-nu) / mp.gamma(nu + 1)      # I_{l+1/2} / y^nu
    i_lo = mp.mpf(2)**(1 - nu) / mp.gamma(nu)       # y I_{l-1/2} / y^nu
    k_hi = mp.gamma(nu) * mp.mpf(2)**(nu - 1)       # K_{l+1/2} y^nu
    scale = r**(2 * l + 1)
    return (-mp.pi / 2 * i_hi / k_hi * scale,
            -mp.pi / 2 * (l * i_hi - i_lo) / (l * k_hi) * scale)


def _u_entries(m, l, lp, x):
    """(preserving, mixing) couplings at x = q; at x = 0 the coefficients
    of q^{-(l+l'+1)}: p = l + l' only, and no mixing term."""
    # destination gauge sign (-1)^{lp+1}: pinned by the field-expansion test
    pref = -(1 / mp.pi) * (-1)**m * (-1)**(lp + 1) * mp.sqrt(
        mp.mpf((2 * l + 1) * (2 * lp + 1)) / (l * (l + 1) * lp * (lp + 1)))
    same = mp.mpf(0)
    cross = mp.mpf(0)
    lam = l * (l + 1) + lp * (lp + 1)
    sig = l + lp + 1
    dl = l - lp
    for p in range(abs(dl), l + lp + 1) if x else [l + lp]:
        w1 = _w3j(l, lp, p, m, -m, 0)
        if w1 == 0:
            continue
        w0 = _w3j(l, lp, p, 0, 0, 0)
        k = _k_sph(p, x) if x else mp.pi / 2 * mp.fac2(2 * p - 1)
        if w0 != 0:
            same += (2 * p + 1) * (lam - p * (p + 1)) * w1 * w0 * k
        if p >= 1 and x:
            w0m = _w3j(l, lp, p - 1, 0, 0, 0)
            if w0m != 0:
                root = mp.sqrt(mp.mpf((sig**2 - p**2) * (p**2 - dl**2)))
                cross += (2 * p + 1) * root * w1 * w0m * _k_sph(p, x)
    return pref * same, pref * cross


def logdet_oracle(r, q, l_max: int, m_values=None):
    """sum over m of w_m log det(I - N_m) at aspect ratio r, kappa d = q.

    ``m_values`` restricts the azimuthal blocks (None for the full sum);
    q = 0 is the static limit.  Raises ArithmeticError, naming the block
    and ``mp.dps``, when a block's determinant comes out <= 0 or its log is
    not finite.
    """
    r = mp.mpf(r)
    q = mp.mpf(q)
    y = q * r
    if q:
        tm = [None] + [_t_mm(l, y) for l in range(1, l_max + 1)]
        te = [None] + [_t_ee(l, y) for l in range(1, l_max + 1)]
    else:
        tm = [None] + [_t_static(l, r)[0] for l in range(1, l_max + 1)]
        te = [None] + [_t_static(l, r)[1] for l in range(1, l_max + 1)]
    total = mp.mpf(0)
    ms = range(0, l_max + 1) if m_values is None else m_values
    for m in ms:
        l0 = max(1, m)
        n = l_max - l0 + 1
        U = mp.zeros(2 * n)
        for i, l in enumerate(range(l0, l_max + 1)):
            for j, lp in enumerate(range(l0, l_max + 1)):
                s, c = _u_entries(m, l, lp, q)
                U[i, j] = s
                U[i + n, j + n] = s
                U[i, j + n] = c
                U[i + n, j] = c
        D = mp.zeros(2 * n)
        T = mp.zeros(2 * n)
        for i, l in enumerate(range(l0, l_max + 1)):
            D[i, i] = (-1)**(l + 1)
            D[i + n, i + n] = (-1)**l
            T[i, i] = tm[l]
            T[i + n, i + n] = te[l]
        N = T * U * T * (D * U * D)
        det = mp.det(mp.eye(2 * n) - N)
        # det(I - N) > 0 for a passive system; a zero or negative det, or
        # one whose log is not finite, means the LU lost every digit
        log_det = mp.log(det) if det > 0 else None
        if log_det is None or not mp.isfinite(log_det):
            raise ArithmeticError(
                f"det(I - N) = {mp.nstr(det, 5)} in block m = {m} at "
                f"mp.dps = {mp.mp.dps}: the LU lost all precision; raise dps")
        total += (1 if m == 0 else 2) * log_det
    return total
