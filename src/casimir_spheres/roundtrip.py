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
batch of frequencies, for every kappa and l_max alike.  Only l <= l' is
summed: by A~[l', l] = (-1)^{l+l'} A~[l, l'], the one-way operator
M = e^{-kappa ell} sigma A~ D is symmetric and N is similar to M^2.  At
kappa = 0, A~ is its closed-form limit (docs/derivations.md, section 8).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from . import scattering, translation
from .errors import NonConvergenceError, SpectralRadiusError
from .geometry import Geometry

__all__ = ["dipole_trace", "logdet_batch"]

# the l_max ladder raises NonConvergenceError rather than double past this
L_CEILING_DEFAULT = 200
# frequencies per assembly and eigenvalue pass in _block_logdets
_Q_SLICE = 128
# share of an l_max tolerance that the m-sum of every ladder stage may drop
_M_SHARE = 0.05


def _atilde_batch(m: int, l0: int, l_max: int, q: np.ndarray, r: float,
                  lt_m: np.ndarray, lt_e: np.ndarray,
                  rad_log: np.ndarray) -> np.ndarray:
    """Packed l <= l' half of ``e^{-q(1-2r)} A~`` for one m over a batch.

    ``lt_m``, ``lt_e`` are log|T e^{-2y}| ladders of shape (nq', l_max) and
    ``rad_log`` is :func:`translation._radial_ladder` at this l_max or
    above, all at the nq' frequencies q > 0 of the batch, in order; the
    rows q = 0 are :func:`_static_half`.  Returns (nq, 2, 2, npair):
    [:, a, b, k] couples channel a at l_k to channel b at l'_k, for the
    pairs of :func:`translation.antidiagonal_pairs`, the order of the
    packed coupling blocks.  The p-sums scaled by 1/k_P come from
    :func:`translation._scaled_sums`; k_P, the T-matrix weights and the gap
    factor come back in one prefactor whose exponent is summed before it
    is exponentiated (docs/derivations.md, section 1).
    """
    n = l_max - l0 + 1
    i, j = translation.antidiagonal_pairs(n)[:2]
    # scaled p-sums of the pairs: [:, 0] preserving, [:, 1] mixing
    sums = translation._scaled_sums(translation.coupling_tensors(m, l0, l_max),
                                    rad_log)

    dyn = q > 0.0
    lth = 0.5 * np.stack([lt_m[:, l0 - 1:], lt_e[:, l0 - 1:]], axis=1)
    # lth_l + lth_l' first, so the mirror pair (l', l) has the same exponent
    half = np.empty((lth.shape[0], 2, 2, i.size))
    np.add(np.take(lth, i, axis=2)[:, :, None, :],
           np.take(lth, j, axis=2)[:, None, :, :], out=half)
    half += (np.take(rad_log, 2 * l0 + 1 + i + j, axis=1)
             - (q[dyn] * (1.0 - 2.0 * r))[:, None])[:, None, None, :]
    np.exp(half, out=half)
    half *= sums[:, [[0, 1], [1, 0]]]
    if dyn.all():
        return half
    out = np.empty((q.shape[0], 2, 2, i.size))
    out[dyn] = half
    out[~dyn] = _static_half(m, l0, l_max, r)
    return out


def _static_half(m: int, l0: int, l_max: int, r: float) -> np.ndarray:
    """Packed l <= l' half of A~ at q = 0, shape (2, 2, npair): only
    p = l + l' survives the preserving sums (column 0 of each GA block) and
    the mixing sums vanish (docs/derivations.md, section 8)."""
    i, j = translation.antidiagonal_pairs(l_max - l0 + 1)[:2]
    ga = np.concatenate([a[:, 0] for a, _ in
                         translation.coupling_tensors(m, l0, l_max).diagonals()])
    ls = np.arange(l0, l_max + 1.0)
    # log|c_l| r^{2l+1} of T -> c_l (qr)^{2l+1}, M then E = (l+1)/l M
    log_m = (math.log(math.pi) - (2.0 * ls + 1.0) * math.log(2.0 / r)
             - gammaln(ls + 1.5) - gammaln(ls + 0.5))
    lth = 0.5 * np.stack([log_m, log_m + np.log((ls + 1.0) / ls)])
    # log k_p(q) q^{p+1} -> log((pi/2) (2p-1)!!), (2p-1)!! = (2p)! / (2^p p!)
    p = 2.0 * l0 + i + j
    log_k = (math.log(math.pi / 2.0) + gammaln(2.0 * p + 1.0)
             - p * math.log(2.0) - gammaln(p + 1.0))
    out = np.zeros((2, 2, i.size))
    out[[0, 1], [0, 1]] = np.exp(lth[:, i] + lth[:, j] + log_k) * ga
    return out


def _one_way(half: np.ndarray, l0: int, l_max: int) -> np.ndarray:
    """M = e^{-q(1-2r)} sigma A~ D, (nq, 2n, 2n), from the packed half.

    The half is unpacked by :func:`translation._unpack_index` through the
    mirror A~[l', l] = (-1)^{l+l'} A~[l, l']; sigma = sign(T) (M < 0 < E)
    scales the rows and the parity D the columns.  M is symmetric and M^2
    is similar to N.
    """
    n = l_max - l0 + 1
    idx, mirror = translation._unpack_index(n)
    one_way = np.take(half.reshape(half.shape[0], -1), idx, axis=1)
    # in place: a fresh product array costs twice the gather
    one_way *= (mirror * np.repeat([-1.0, 1.0], n)[:, None]
                * translation.parity_signs(l0, l_max))
    return one_way


def _block_logdets(m: int, l_max: int, q: np.ndarray, r: float,
                   lt_m: np.ndarray, lt_e: np.ndarray, rad_log: np.ndarray,
                   budget: float | np.ndarray = 0.0) -> np.ndarray:
    """log det(I - N_m) for one m over a batch of adimensional frequencies.

    log det(I - N) = sum log1p(-mu^2) over the eigenvalues mu of M, and
    t = tr N = ||M||_F^2 comes from the packed half.  Where the terms that
    -t drops, at most t^2 / (2 (1 - t)), are below ``budget`` (per
    frequency), the block is -t and M is never formed.  The batch is
    taken ``_Q_SLICE`` frequencies at a time, which bounds the transients.
    The ladders hold the rows q > 0 only, as in :func:`_atilde_batch`.
    """
    l0 = max(1, m)
    n = l_max - l0 + 1
    i, j = translation.antidiagonal_pairs(n)[:2]
    weight = np.where(i == j, 1.0, 2.0)
    # at m = 0 the mixing blocks vanish: two spectra of half the size
    cuts = (slice(0, n), slice(n, None)) if m == 0 else (slice(None),)
    budget = np.broadcast_to(budget, q.shape)
    out = np.empty(q.shape)
    for start in range(0, q.shape[0], _Q_SLICE):
        b = slice(start, start + _Q_SLICE)
        k = slice(np.count_nonzero(q[:start] > 0.0),
                  np.count_nonzero(q[:start + _Q_SLICE] > 0.0))
        half = _atilde_batch(m, l0, l_max, q[b], r, lt_m[k], lt_e[k],
                             rad_log[k])
        t = np.einsum("qabk,qabk,k->q", half, half, weight)
        res = out[b]
        res[:] = -t
        exact = ~(0.5 * t * t < budget[b] * (1.0 - t))
        if np.any(exact):
            one_way = _one_way(half[exact], l0, l_max)
            mu = np.concatenate([np.linalg.eigvalsh(one_way[:, c, c])
                                 for c in cuts], axis=1)
            bad = q[b][exact][np.max(np.abs(mu), axis=1) >= 1.0]
            if bad.size:
                raise SpectralRadiusError(
                    f"rho(N) >= 1 in m={m} block at kappa*d={bad[:3]}")
            res[exact] = np.sum(np.log1p(-mu * mu), axis=1)
    return out


def logdet_batch(r: float, q: np.ndarray, l_max: int,
                 m_rel_tol: float = 1e-12) -> tuple[np.ndarray, int]:
    """Sum over m (weights 1, 2, 2, ...) of block log-determinants.

    Evaluates a whole batch of adimensional frequencies ``q = kappa*d`` at
    fixed ``l_max``; q = 0 is the static limit, and the Bessel and
    T-matrix ladders run on the frequencies q > 0 only.  The m-sum stops
    once two consecutive blocks contribute less than ``m_rel_tol`` of the
    accumulated value for every frequency.  Returns ``(g, m_max_used)``.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all(np.isfinite(q) & (q >= 0.0)):
        raise ValueError("kappa*d must be finite and >= 0")
    lt_m, lt_e = scattering.t_scaled_log_vec(l_max, q[q > 0.0] * r)
    rad_log = translation._radial_ladder(q[q > 0.0], l_max)
    acc = np.zeros(q.shape[0])
    quiet = 0
    for m in range(0, l_max + 1):
        w = 1.0 if m == 0 else 2.0
        # a block may drop 1e-2 m_rel_tol of the sum so far: none at m = 0
        contrib = w * _block_logdets(m, l_max, q, r, lt_m, lt_e, rad_log,
                                     budget=1e-2 * m_rel_tol * np.abs(acc) / w)
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


def _start_l_max(r: float) -> int:
    return max(4, math.ceil(5.0 * r / (1.0 - 2.0 * r)))


def _confirm(r: float, q: np.ndarray, g: np.ndarray, l_max: int, tol: float,
             l_ceiling: int = L_CEILING_DEFAULT, scale: np.ndarray | None = None,
             evaluate=None) -> tuple[float, np.ndarray]:
    """The ladder's confirmation stage: the worst change of ``g`` (at
    ``l_max`` on ``q``) at a bounded enlargement, relative to ``scale``
    (default: the ladder's rule on the enlarged values).
    Returns ``(change, g_at_enlarged_l_max)``."""
    evaluate = evaluate or logdet_batch
    l_conf = min(l_ceiling, l_max + max(8, l_max // 5))
    g_conf, _ = evaluate(r, q, l_conf, m_rel_tol=_M_SHARE * tol)
    if scale is None:
        if not np.any(g_conf):
            return 0.0, g_conf
        scale = np.maximum(np.abs(g_conf), 1e-2 * np.max(np.abs(g_conf)))
    return float(np.max(np.abs(g_conf - g) / scale)), g_conf


def _converged_l_max(r: float, q_probe: np.ndarray, tol: float,
                     l_ceiling: int = L_CEILING_DEFAULT,
                     l_start: int | None = None,
                     evaluate=None) -> tuple[int, np.ndarray, float]:
    """The l_max ladder (docs/derivations.md, section 7).

    From ``l_start`` (default :func:`_start_l_max`) l_max doubles until
    every probe changes by less than ``tol`` relative to |g| floored at
    1e-2 of the largest probe, and :func:`_confirm` agrees on the three
    worst.  A below-tol change L -> 2L certifies L, so the *smaller* stage
    is returned: ``(l_max, g_at_probe, worst_change)``.  ``evaluate``
    replaces :func:`logdet_batch` (same signature), e.g. to count calls.
    Every numeric route passes here: ValueError unless 0 < tol < 1.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be finite with 0 < tol < 1, got {tol!r}")
    evaluate = evaluate or logdet_batch
    l_max = l_start if l_start is not None else _start_l_max(r)
    m_tol = _M_SHARE * tol
    # thin wide probe sets: the truncation error is smooth in q
    q_probe = np.asarray(q_probe, dtype=float)
    if q_probe.shape[0] > 8:
        q_probe = q_probe[np.unique(
            np.linspace(0, q_probe.shape[0] - 1, 8).astype(int))]
    g_prev, _ = evaluate(r, q_probe, l_max, m_rel_tol=m_tol)
    while True:
        l_next = 2 * l_max
        if l_next > l_ceiling:
            raise NonConvergenceError(
                f"l_max exceeded l_ceiling={l_ceiling} for r={r:g}")
        g_next, _ = evaluate(r, q_probe, l_next, m_rel_tol=m_tol)
        if not np.any(g_next):
            # every probe is below the underflow floor: trivially converged
            return l_max, g_next, 0.0
        scale = np.maximum(np.abs(g_next), 1e-2 * np.max(np.abs(g_next)))
        rel = np.abs(g_next - g_prev) / scale
        change = float(np.max(rel))
        if change < tol:
            # confirm on the worst three probes, with the full set's scale
            worst = np.argsort(rel)[-3:]
            conf, _ = _confirm(r, q_probe[worst], g_next[worst], l_next, tol,
                               l_ceiling, scale[worst], evaluate)
            if conf < tol:
                return l_max, g_prev, max(change, conf)
        g_prev, l_max = g_next, l_next


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
