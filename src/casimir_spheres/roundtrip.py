r"""Round-trip operator N = T U12 T U21 and log det(I - N).

Per azimuthal block m the operator is assembled in a symmetrised, scaled
form: with ``tau = |T|`` and sign diagonals ``sigma = sign(T)``,
``D`` the parity operator, the determinant is invariant under

.. math::
    \det(I - T U_{12} T U_{21})
        = \det\bigl(I - e^{-2\kappa\ell}\,
          \sigma \tilde A \sigma D \tilde A D\bigr), \qquad
    \tilde A = e^{\kappa d - 2\kappa R}\,
        \tau^{1/2} U_{12} \tau^{1/2}.

The geometric-mean weighting keeps every entry of ``\tilde A`` inside the
float64 range for all gap sizes: the (kappa d)^{l-l'} power divergences and
the (kappa R)^{2l+1} T-matrix underflows cancel entry-wise, and the only
exponential left is the physical gap decay exp(-2 kappa ell), applied once.

The cancellation holds for the entries, not for the single p-terms that
sum to them.  The p-sum of entry (l, l') ends at P = l + l' + 1, so every
term is scaled by k_p / k_P <= 1 before it is summed and k_P is restored in
a prefactor that is formed in the log domain.  Entries with equal P lie on
one anti-diagonal; each anti-diagonal is one matrix product over the whole
batch of frequencies, for every kappa and l_max alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scattering, translation
from .errors import NonConvergenceError, SpectralRadiusError
from .geometry import Geometry

__all__ = ["RoundTripBlock", "LogDetResult", "logdet_one_minus_n",
           "dipole_trace", "logdet_batch", "roundtrip_block"]

L_CEILING_DEFAULT = 200


@dataclass(frozen=True)
class LogDetResult:
    """Sum over m of w_m log det(I - N_m) at one imaginary frequency."""

    value: float
    l_max_used: int
    m_max_used: int
    converged: bool
    est_truncation_error: float


@dataclass(frozen=True)
class RoundTripBlock:
    """Materialised (similarity-scaled) round-trip matrix of one m-block."""

    m: int
    matrix: np.ndarray
    kappa: float


def _atilde_batch(m: int, l0: int, l_max: int, q: np.ndarray, r: float,
                  lt_m: np.ndarray, lt_e: np.ndarray) -> np.ndarray:
    """Scaled symmetrised blocks ``A~`` for one m over a frequency batch.

    ``lt_m``, ``lt_e`` are log|T e^{-2y}| ladders of shape (nq, l_max).
    Returns a stack (nq, 2n, 2n).  The p-sum of entry (l, l') ends at
    P = l + l' + 1 and k_p increases with p, so each p-term scaled by
    k_p / k_P is at most |G|.  The entries of one anti-diagonal share P and
    are contracted by one matmul over the whole batch; k_P comes back in
    the prefactor exp(lth_l + lth_l' + log k_P), whose exponent is summed
    before it is exponentiated (docs/derivations.md, section 1).
    """
    from .specfun import log_khat_spherical_ladder_vec

    ga, gb = translation.coupling_tensors(m, l0, l_max)
    p_len = ga.shape[2]
    ps = np.arange(p_len)
    # log(k_p(x) e^x) for p = 0..p_len-1
    rad_log = (math.log(math.pi / 2.0)
               + log_khat_spherical_ladder_vec(p_len - 1, q)
               - (ps + 1.0)[None, :] * np.log(q)[:, None])

    nq = q.shape[0]
    n = l_max - l0 + 1
    # scaled p-sums packed by anti-diagonal s = i + j, with P = 2 l0 + 1 + s:
    # diag[:, 0, s, k] is the preserving, diag[:, 1, s, k] the mixing sum of
    # the k-th pair (i, s - i) on it
    diag = np.zeros((nq, 2, 2 * n - 1, n))
    for s in range(2 * n - 1):
        i = np.arange(max(0, s - n + 1), min(s, n - 1) + 1)
        big_p = 2 * l0 + 1 + s
        ref = rad_log[:, big_p, None]
        # the 3j selection rules put GA on p = P-1, P-3, ... and GB on P, P-2, ...
        diag[:, 0, s, :i.size] = (np.exp(rad_log[:, big_p - 1::-2] - ref)
                                  @ ga[i, s - i, big_p - 1::-2].T)
        if m:
            diag[:, 1, s, :i.size] = (np.exp(rad_log[:, big_p::-2] - ref)
                                      @ gb[i, s - i, big_p::-2].T)

    # unpack into [[same, cross], [cross, same]]; np.take keeps the
    # frequency axis outermost in memory, as the batched matmuls want it
    ls = np.arange(n)
    s_ij = ls[:, None] + ls[None, :]
    same = s_ij * n + ls[:, None] - np.maximum(0, s_ij - n + 1)
    cross = same + (2 * n - 1) * n
    at = np.take(diag.reshape(nq, -1),
                 np.block([[same, cross], [cross, same]]), axis=1)
    del diag

    sl = slice(l0 - 1, l_max)
    lth = 0.5 * np.concatenate([lt_m[:, sl], lt_e[:, sl]], axis=1)
    expo = np.take(rad_log, 2 * l0 + 1 + np.tile(s_ij, (2, 2)), axis=1)
    expo += lth[:, :, None]
    expo += lth[:, None, :]
    at *= np.exp(expo, out=expo)
    return at


def _block_logdets(m: int, l_max: int, q: np.ndarray, r: float,
                   lt_m: np.ndarray, lt_e: np.ndarray) -> np.ndarray:
    """log det(I - N_m) for one m over a batch of adimensional frequencies.

    Blocks with small Frobenius norm use the Mercator trace series
    -sum_k Tr(N^k)/k, which keeps full relative precision where an LU
    determinant would round 1 - x to 1; larger blocks use slogdet.
    """
    l0 = max(1, m)
    n = l_max - l0 + 1
    at = _atilde_batch(m, l0, l_max, q, r, lt_m, lt_e)

    sigma = np.concatenate([-np.ones(n), np.ones(n)])   # sign(T): M < 0 < E
    dpar = translation.parity_signs(l0, l_max)
    left = (sigma[:, None] * sigma[None, :] * dpar[None, :]) * at
    right = at * dpar[None, None, :]
    nhat = left @ right
    nhat *= np.exp(-2.0 * q * (1.0 - 2.0 * r))[:, None, None]

    out = np.empty(q.shape[0])
    fro = np.sqrt(np.sum(nhat**2, axis=(1, 2)))
    t1 = np.trace(nhat, axis1=1, axis2=2)
    # tr(N^2) without a matmul
    t2 = np.einsum("qij,qji->q", nhat, nhat)

    # Mercator series -sum_k tr(N^k)/k keeps full relative precision where
    # an LU determinant would round 1 - x to 1; the power traces come from
    # elementwise products, costing at most two matmuls per block.
    tiny = fro < 1e-7
    out[tiny] = -(t1[tiny] + 0.5 * t2[tiny])
    series = (~tiny) & (fro < 0.02)
    if np.any(series):
        sub = nhat[series]
        n2 = sub @ sub
        n4 = n2 @ n2
        s1 = t1[series]
        s2 = t2[series]
        s3 = np.einsum("qij,qji->q", n2, sub)
        s4 = np.trace(n4, axis1=1, axis2=2)
        s5 = np.einsum("qij,qji->q", n4, sub)
        s6 = np.einsum("qij,qji->q", n4, n2)
        out[series] = -(s1 + s2 / 2.0 + s3 / 3.0 + s4 / 4.0
                        + s5 / 5.0 + s6 / 6.0)
    big = ~(tiny | series)
    if np.any(big):
        eye = np.eye(2 * n)
        sign, logabs = np.linalg.slogdet(eye[None, :, :] - nhat[big])
        if np.any(sign <= 0.0):
            bad = q[big][sign <= 0.0]
            raise SpectralRadiusError(
                f"det(I - N) <= 0 in m={m} block at kappa*d={bad[:3]}")
        out[big] = logabs
    return out


def logdet_batch(r: float, q: np.ndarray, l_max: int,
                 m_rel_tol: float = 1e-12) -> tuple[np.ndarray, int]:
    """Sum over m (weights 1, 2, 2, ...) of block log-determinants.

    Evaluates a whole batch of adimensional frequencies ``q = kappa*d`` at
    fixed ``l_max``.  The m-sum stops once two consecutive blocks
    contribute less than ``m_rel_tol`` of the accumulated value for every
    frequency.  Returns ``(g, m_max_used)``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any(q <= 0):
        raise ValueError("kappa*d must be > 0")
    y = q * r
    lt_m, lt_e = scattering.t_scaled_log_vec(l_max, y)
    acc = np.zeros(q.shape[0])
    m_used = 0
    quiet = 0
    for m in range(0, l_max + 1):
        w = 1.0 if m == 0 else 2.0
        contrib = w * _block_logdets(m, l_max, q, r, lt_m, lt_e)
        acc += contrib
        m_used = m
        scale = np.maximum(np.abs(acc), 1e-300)
        if np.all(np.abs(contrib) <= m_rel_tol * scale):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    return acc, m_used


def roundtrip_block(geometry: Geometry, kappa: float, m: int,
                    l_max: int) -> RoundTripBlock:
    """Materialised scaled round-trip matrix of one m-block (inspection/tests).

    The matrix is similarity-equivalent to N_m, so spectra and
    determinants agree with the physical block.
    """
    r = geometry.r
    q = np.array([kappa * geometry.d])
    lt_m, lt_e = scattering.t_scaled_log_vec(l_max, q * r)
    l0 = max(1, m)
    n = l_max - l0 + 1
    at = _atilde_batch(m, l0, l_max, q, r, lt_m, lt_e)
    sigma = np.concatenate([-np.ones(n), np.ones(n)])
    dpar = translation.parity_signs(l0, l_max)
    nhat = ((sigma[:, None] * sigma[None, :] * dpar[None, :]) * at[0]) @ (at[0] * dpar[None, :])
    nhat *= math.exp(-2.0 * q[0] * (1.0 - 2.0 * r))
    return RoundTripBlock(m=m, matrix=nhat, kappa=kappa)


def _start_l_max(r: float) -> int:
    return max(4, math.ceil(5.0 * r / (1.0 - 2.0 * r)))


def logdet_one_minus_n(geometry: Geometry, kappa: float, tol: float = 1e-9,
                       l_ceiling: int = L_CEILING_DEFAULT) -> LogDetResult:
    """Adaptive evaluation of sum_m w_m log det(I - N_m(kappa)).

    l_max starts at ``max(4, ceil(5 r / (1 - 2r)))`` and doubles until the
    relative change drops below ``tol``; a second consecutive pass at a
    bounded enlargement confirms convergence (a further doubling would
    cost 8x for no extra information).
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    r = geometry.r
    q = np.array([kappa * geometry.d])
    l_max = _start_l_max(r)
    g, m_used = logdet_batch(r, q, l_max, m_rel_tol=0.1 * tol)
    prev = float(g[0])
    last_change = math.inf
    while 2 * l_max <= l_ceiling:
        l_next = 2 * l_max
        g, m_used = logdet_batch(r, q, l_next, m_rel_tol=0.1 * tol)
        val = float(g[0])
        last_change = abs(val - prev) / max(abs(val), 1e-300)
        if last_change < tol:
            l_conf = min(l_ceiling, l_next + max(8, l_next // 5))
            g_conf, m_conf = logdet_batch(r, q, l_conf, m_rel_tol=0.1 * tol)
            conf = abs(float(g_conf[0]) - val) / max(abs(val), 1e-300)
            if conf < tol:
                return LogDetResult(value=float(g_conf[0]), l_max_used=l_conf,
                                    m_max_used=m_conf, converged=True,
                                    est_truncation_error=max(conf, last_change))
        prev, l_max = val, l_next
    raise NonConvergenceError(
        f"l_max exceeded l_ceiling={l_ceiling} at kappa*d={q[0]:g} "
        f"(last relative change {last_change:g})")


def dipole_trace(geometry: Geometry, kappa: float) -> float:
    """-Tr N restricted to the dipole sector with leading-order T elements.

    This is the per-frequency summand of the large-separation free energy;
    it scales as (R/d)^6 at fixed kappa*d and decays as exp(-2 kappa d).
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    q = kappa * geometry.d
    r = geometry.r
    if q == 0.0:
        return -7.5 * r**6
    t_mm, t_ee = scattering.dipole_tmatrix(q, r)
    tmat = np.diag([t_mm, t_ee])
    dip = translation.dipole_translation_limit(q)
    trace = 0.0
    for m in (-1, 0, 1):
        u12 = dip.block(m)
        d = np.diag([1.0, -1.0])      # parity of (M, E) at l = 1
        u21 = d @ u12 @ d
        trace += np.trace(tmat @ u12 @ tmat @ u21)
    return -trace
