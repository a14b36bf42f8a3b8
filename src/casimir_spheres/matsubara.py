r"""Temperature machinery: Matsubara sums, zero-temperature quadrature,
the n = 0 static term, and a spline-accelerated determinant table.

The Casimir contribution to the Helmholtz free energy is

.. math::
    E = k_B T \,{\sum_n}' \; g(\kappa_n d), \qquad
    g(q) = \sum_m w_m \log\det(I - N_m(q/d)),

with Matsubara frequencies ``kappa_n = n / lambda_T`` and the n = 0 term
weighted by 1/2.  Everything is computed in adimensional variables
``r = R/d``, ``z = d/lambda_T``, ``q = kappa d``; physical units enter only
at the boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline

from . import roundtrip
from .constants import HBAR_C
from .errors import ExtrapolationUnstableError, NonConvergenceError
from .geometry import Geometry, ThermalPoint

__all__ = ["Geometry", "ThermalPoint", "FreeEnergyResult", "free_energy",
           "zero_T_energy", "static_term", "DeterminantTable",
           "free_energy_ad", "zero_T_energy_ad"]

N_CEILING_DEFAULT = 10**6

# q-nodes used for the kappa -> 0 extrapolation of the static term
_STATIC_NODES = (1e-3, 5e-4, 2.5e-4)


@dataclass(frozen=True)
class FreeEnergyResult:
    """Free energy with per-term breakdown and convergence diagnostics."""

    energy: float
    n_terms_used: int
    per_term: list
    tail_bound: float
    method: str
    l_max_used: int = 0


def _converged_l_max(r: float, q_probe: np.ndarray, tol: float,
                     l_ceiling: int = roundtrip.L_CEILING_DEFAULT,
                     l_start: int | None = None,
                     logdet_batch=None) -> tuple[int, np.ndarray, float]:
    """Smallest l_max from the doubling ladder with converged+confirmed probes.

    Doubles until every probe changes by less than ``tol`` relative, then
    confirms with a further enlarged l_max (the second consecutive pass at
    bounded cost).  A below-tol change L -> 2L certifies stage L itself, so
    the *smaller* stage is returned for evaluation.  Returns
    ``(l_max, g_at_probe, worst_change)``.  ``logdet_batch`` replaces
    :func:`roundtrip.logdet_batch` (same signature), e.g. to count calls.
    """
    logdet_batch = logdet_batch or roundtrip.logdet_batch
    l_max = l_start if l_start is not None else roundtrip._start_l_max(r)
    m_tol = 0.05 * tol
    # thin wide probe sets: the convergence profile is smooth in kappa, so
    # a handful of spread-out frequencies certifies the whole range
    q_full = np.asarray(q_probe, dtype=float)
    if q_full.shape[0] > 8:
        idx = np.unique(np.linspace(0, q_full.shape[0] - 1, 8).astype(int))
        q_probe = q_full[idx]
    g_prev, _ = logdet_batch(r, q_probe, l_max, m_rel_tol=m_tol)
    while True:
        l_next = 2 * l_max
        if l_next > l_ceiling:
            raise NonConvergenceError(
                f"l_max exceeded l_ceiling={l_ceiling} for r={r:g}")
        g_next, _ = logdet_batch(r, q_probe, l_next, m_rel_tol=m_tol)
        top = float(np.max(np.abs(g_next)))
        if top == 0.0:
            # every probe is below the underflow floor: trivially converged
            return l_max, g_next, 0.0
        scale = np.maximum(np.abs(g_next), 1e-2 * top)
        rel = np.abs(g_next - g_prev) / scale
        change = float(np.max(rel))
        if change < tol:
            # second consecutive pass on the worst few probes, at a bounded
            # enlargement instead of a further doubling
            worst = np.argsort(rel)[-3:]
            l_conf = min(l_ceiling, l_next + max(8, l_next // 5))
            g_conf, _ = logdet_batch(r, q_probe[worst], l_conf,
                                     m_rel_tol=m_tol)
            conf_change = float(np.max(np.abs(g_conf - g_next[worst])
                                       / scale[worst]))
            if conf_change < tol:
                return l_max, g_prev, max(change, conf_change)
        g_prev, l_max = g_next, l_next


def static_term(geometry: Geometry, tol: float = 1e-9,
                nodes: tuple = _STATIC_NODES,
                l_max_hint: int | None = None) -> float:
    """lim_{kappa->0} sum_m w_m log det(I - N_m), by polynomial extrapolation.

    Evaluates at kappa*d in ``nodes`` (a geometric ladder with ratio 1/2)
    and extrapolates to zero assuming polynomial behaviour in kappa*d;
    raises ExtrapolationUnstable if the correction terms do not shrink.
    Cached per (aspect ratio, tol, nodes): the limit is adimensional.
    """
    return _static_term_cached(geometry.r, tol, tuple(nodes), l_max_hint)


@lru_cache(maxsize=256)
def _static_term_cached(r: float, tol: float, nodes: tuple,
                        l_max_hint: int | None = None) -> float:
    q = np.asarray(nodes, dtype=float)
    m_tol = 0.05 * tol
    if l_max_hint is not None:
        # trust-but-verify: accept the hint if a bounded enlargement agrees
        g, _ = roundtrip.logdet_batch(r, q, l_max_hint, m_rel_tol=m_tol)
        l_conf = l_max_hint + max(8, l_max_hint // 5)
        g_conf, _ = roundtrip.logdet_batch(r, q, l_conf, m_rel_tol=m_tol)
        scale = np.maximum(np.abs(g_conf), 1e-300)
        if float(np.max(np.abs(g_conf - g) / scale)) < tol:
            g = g_conf
            l_max = l_conf
        else:
            l_max, g, _ = _converged_l_max(r, q, tol, l_start=l_max_hint)
    else:
        l_max, g, _ = _converged_l_max(r, q, tol)
    # Lagrange extrapolation to q=0 through (h, h/2, h/4)
    g0 = (g[0] - 6.0 * g[1] + 8.0 * g[2]) / 3.0
    r1 = 2.0 * g[1] - g[0]
    r2 = 2.0 * g[2] - g[1]
    step1 = abs(g[1] - g[0])
    step2 = abs(r2 - r1)
    if step1 > 0 and step2 > 0.75 * step1:
        raise ExtrapolationUnstableError(
            f"static-term extrapolation not polynomial: raw step {step1:g}, "
            f"first-order residual {step2:g}")
    if g0 >= 0.0:
        raise ExtrapolationUnstableError("static term must be negative")
    return float(g0)


def free_energy(geometry: Geometry, thermal: ThermalPoint, tol: float = 1e-9,
                n_ceiling: int = N_CEILING_DEFAULT,
                l_max_hint: int | None = None) -> FreeEnergyResult:
    """Matsubara sum for the free energy at temperature T > 0.

    Terms are added until the current term is below ``tol`` times the
    accumulated sum and the geometric tail bound (from the ratio of the
    last two terms) is below ``tol`` times the sum.  T = 0 dispatches to
    :func:`zero_T_energy`.

    ``l_max_hint`` skips the initial multipole-convergence ladder (useful
    for derivative stencils around a converged central geometry); the
    periodic in-sum confirmation still guards against a stale cutoff.
    """
    if thermal.T < 0:
        raise ValueError("temperature must be >= 0")
    if thermal.T == 0:
        return zero_T_energy(geometry, tol)
    z = thermal.z
    r = geometry.r
    kT = thermal.kT

    g0 = static_term(geometry, tol, l_max_hint=l_max_hint)
    per_term = [0.5 * kT * g0]
    acc = 0.5 * g0
    chunk = 16
    n = 1
    tail = math.inf
    g_prev = None
    done = False
    m_tol = 0.05 * tol
    # converge the multipole cutoff once on the first chunk plus static-side
    # probes; later chunks (larger kappa) reuse it with periodic cheap
    # confirmations, since the required cutoff only shrinks with frequency
    if l_max_hint is None:
        probe = np.unique(np.concatenate([z * np.arange(1, chunk + 1.0),
                                          np.asarray(_STATIC_NODES)]))
        l_max, _, _ = _converged_l_max(r, probe, tol)
    else:
        l_max = l_max_hint
    l_used = l_max
    chunk_idx = 0
    while n <= n_ceiling and not done:
        q = z * np.arange(n, n + chunk, dtype=float)
        g, _ = roundtrip.logdet_batch(r, q, l_max, m_rel_tol=m_tol)
        if chunk_idx % 8 == 7:
            l_conf = l_max + max(8, l_max // 5)
            g_conf, _ = roundtrip.logdet_batch(r, q, l_conf, m_rel_tol=m_tol)
            top = float(np.max(np.abs(g_conf)))
            if top > 0.0:
                scale = np.maximum(np.abs(g_conf), 1e-2 * top)
                if float(np.max(np.abs(g_conf - g) / scale)) > tol:
                    l_max, g, _ = _converged_l_max(r, q, tol, l_start=l_max)
                    l_used = max(l_used, l_max)
        chunk_idx += 1
        for gi in g:
            if gi == 0.0 and acc != 0.0:
                # below the determinant resolution: converged tail
                tail = 0.0
                done = True
                break
            acc += gi
            per_term.append(kT * gi)
            if g_prev is not None and g_prev != 0.0:
                ratio = min(abs(gi) / abs(g_prev), 0.999999)
                tail = abs(gi) * ratio / (1.0 - ratio)
                if abs(gi) < tol * abs(acc) and tail < tol * abs(acc):
                    done = True
                    break
            g_prev = gi
        n += chunk
    if not done:
        raise NonConvergenceError(
            f"Matsubara sum did not converge within n_ceiling={n_ceiling}")
    return FreeEnergyResult(energy=kT * acc, n_terms_used=len(per_term),
                            per_term=per_term, tail_bound=kT * tail,
                            method="matsubara_sum", l_max_used=l_used)


def zero_T_energy(geometry: Geometry, tol: float = 1e-9) -> FreeEnergyResult:
    """Zero-temperature energy E(0) = (hbar c / 2 pi) int dkappa g(kappa d).

    Adaptive quadrature on q = kappa*d over [0, 20] plus an exponential
    tail on [20, q_max]; the remainder beyond q_max is bounded by the
    integrand's gap decay and checked against ``tol``.
    """
    r = geometry.r
    q_probe = np.array([0.05, 0.5, 2.0, 8.0])
    l_max, g_probe, _ = _converged_l_max(r, q_probe, tol)
    m_tol = 0.05 * tol
    nev = [0]

    def g_scalar(q: float) -> float:
        nev[0] += 1
        val, _ = roundtrip.logdet_batch(r, np.array([q]), l_max, m_rel_tol=m_tol)
        return float(val[0])

    abs_floor = 0.05 * tol * float(np.max(np.abs(g_probe)))
    decay = 2.0 * (1.0 - 2.0 * r)
    q_max = 20.0 + 40.0 / decay
    with warnings.catch_warnings():
        # round-off chatter near the converged tail; accuracy is enforced
        # through the explicit tail bound below
        warnings.simplefilter("ignore", IntegrationWarning)
        i1, e1 = quad(g_scalar, 0.0, 20.0, epsabs=abs_floor,
                      epsrel=0.25 * tol, limit=300)
        i2, e2 = quad(lambda s: g_scalar(20.0 + s), 0.0, q_max - 20.0,
                      epsabs=max(abs_floor, 0.1 * tol * abs(i1)),
                      epsrel=0.25 * tol, limit=200)
    total = i1 + i2
    tail = abs(g_scalar(q_max)) / decay
    if tail > tol * abs(total):
        raise NonConvergenceError("zero-T quadrature tail bound exceeds tolerance")
    energy = HBAR_C / (2.0 * math.pi * geometry.d) * total
    return FreeEnergyResult(energy=energy, n_terms_used=nev[0], per_term=[],
                            tail_bound=abs(HBAR_C / (2.0 * math.pi * geometry.d))
                            * (tail + e1 + e2),
                            method="zero_T_quadrature", l_max_used=l_max)


def free_energy_ad(r: float, z: float, tol: float = 1e-9) -> float:
    """Adimensional free energy E_ad = 2 pi d^7 E / (hbar c R^6) at (r, z)."""
    geo = Geometry.from_ratio(r)
    res = free_energy(geo, ThermalPoint.from_z(z, geo), tol)
    return res.energy / (HBAR_C * geo.R**6 / (2.0 * math.pi * geo.d**7))


def zero_T_energy_ad(r: float, tol: float = 1e-9) -> float:
    """Adimensional zero-temperature energy at aspect ratio r."""
    geo = Geometry.from_ratio(r)
    res = zero_T_energy(geo, tol)
    return res.energy / (HBAR_C * geo.R**6 / (2.0 * math.pi * geo.d**7))


@dataclass
class DeterminantTable:
    """Spline table of g(q) = sum_m w_m logdet(I - N_m) at fixed aspect ratio.

    Built once per (r, tol); free energies and entropies on whole z-grids
    are then sums over the spline, which reproduces direct evaluation to
    the table tolerance (validated in the test suite).  The spline carries
    ``h(q) = log(-g(q))``, which is smooth and asymptotically linear.

    Each frequency is evaluated once: a refinement round evaluates only the
    midpoints of the intervals the previous round split, and reads the
    others, the same floats, from the rounds before.  The logarithmic slope
    g'/g behind :meth:`gprime_of_q` and :meth:`s_ad` comes from paired
    evaluations at every node, made on their first use, so a table read
    only through :meth:`e_ad` never makes them.  ``freqs_evaluated``
    counts the frequencies passed to :func:`roundtrip.logdet_batch`.
    """

    r: float
    tol: float = 1e-9
    q_min: float = 1e-3
    n_small: int = 80
    n_large: int = 360
    max_refine: int = 4
    g0: float = field(init=False)
    l_max_used: int = field(init=False)
    q_max: float = field(init=False)

    def __post_init__(self):
        r = self.r
        self._freqs = 0
        decay = 2.0 * (1.0 - 2.0 * r)
        self.q_max = 42.0 / decay
        grid = np.unique(np.concatenate([
            np.geomspace(self.q_min, 1.0, self.n_small, endpoint=False),
            np.linspace(1.0, self.q_max, self.n_large),
        ]))
        l_max, _, _ = _converged_l_max(
            r, np.array([*_STATIC_NODES, 0.3, 1.0, 3.0, 10.0]), self.tol,
            logdet_batch=self._logdet_batch)
        self.l_max_used = l_max
        g = self._g_at(grid)
        # the determinant resolves |g| only down to machine epsilon; trim
        # the exhausted tail (its contribution is below any tolerance)
        keep = g < 0.0
        grid, g = grid[keep], g[keep]
        # static limit from the standard extrapolation ladder
        g_st = self._g_at(np.asarray(_STATIC_NODES))
        self.g0 = float((g_st[0] - 6.0 * g_st[1] + 8.0 * g_st[2]) / 3.0)
        # adaptive refinement: insert exact midpoints on intervals where the
        # spline mispredicts beyond the table tolerance; values close to the
        # determinant's absolute resolution floor are exempt (pure noise)
        noise_floor = 5e-15 * abs(self.g0)
        g_of = {}
        for _ in range(self.max_refine):
            spl = CubicSpline(grid, np.log(-g))
            mid = 0.5 * (grid[:-1] + grid[1:])
            # an interval left unsplit keeps its midpoint, the same float:
            # only the midpoints of the intervals just split are new
            new = [q for q in mid.tolist() if q not in g_of]
            g_of.update(zip(new, self._g_at(np.array(new)).tolist()))
            g_mid = np.array([g_of[q] for q in mid.tolist()])
            ok = g_mid < 0.0
            mid, g_mid = mid[ok], g_mid[ok]
            err = np.abs(-np.exp(spl(mid)) - g_mid) / np.maximum(
                np.abs(g_mid), noise_floor / self.tol)
            bad = err > 0.3 * self.tol
            if not np.any(bad):
                break
            merged = np.concatenate([grid, mid[bad]])
            order = np.argsort(merged)
            grid = merged[order]
            g = np.concatenate([g, g_mid[bad]])[order]
        self._q = grid
        self._g = g
        self.q_max = float(grid[-1])
        self._spl = CubicSpline(grid, np.log(-g))

    @property
    def freqs_evaluated(self) -> int:
        """Frequencies passed to logdet_batch: ladder probes, grid, static
        nodes and new midpoints, plus the slope pairs once they are built."""
        return self._freqs

    def _logdet_batch(self, r, q, l_max, m_rel_tol):
        """:func:`roundtrip.logdet_batch`, counted in ``freqs_evaluated``."""
        self._freqs += len(q)
        return roundtrip.logdet_batch(r, q, l_max, m_rel_tol=m_rel_tol)

    def _g_at(self, q: np.ndarray) -> np.ndarray:
        """g at the table's l_max and m-sum tolerance."""
        g, _ = self._logdet_batch(self.r, q, self.l_max_used,
                                  m_rel_tol=0.05 * self.tol)
        return g

    @cached_property
    def _phi(self) -> CubicSpline:
        """Spline of the logarithmic slope phi = g'/g on the nodes.

        From exact paired evaluations: the spline's own derivative is an
        order less accurate than its values, while phi is smooth and O(1),
        so entropy sums stay at table accuracy.
        """
        dq = 5e-5 * np.maximum(self._q, 0.5)
        g_hi = self._g_at(self._q + dq)
        g_lo = self._g_at(self._q - dq)
        return CubicSpline(self._q, (np.log(-g_hi) - np.log(-g_lo)) / (2.0 * dq))

    def g_of_q(self, q: np.ndarray) -> np.ndarray:
        """Spline evaluation of g(q); zero beyond the tabulated range."""
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape)
        inside = (q >= self._q[0]) & (q <= self._q[-1])
        out[inside] = -np.exp(self._spl(q[inside]))
        below = q < self._q[0]
        if np.any(below):
            # linear bridge between the static limit and the first node
            g1 = -math.exp(self._spl(self._q[0]))
            out[below] = self.g0 + (g1 - self.g0) * q[below] / self._q[0]
        return out

    def gprime_of_q(self, q: np.ndarray) -> np.ndarray:
        """g'(q) from the tabulated logarithmic slope; zero beyond the range."""
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape)
        inside = (q >= self._q[0]) & (q <= self._q[-1])
        qi = q[inside]
        out[inside] = -np.exp(self._spl(qi)) * self._phi(qi)
        below = q < self._q[0]
        if np.any(below):
            g1 = -math.exp(self._spl(self._q[0]))
            out[below] = (g1 - self.g0) / self._q[0]
        return out

    def sum_weights(self, z: float) -> np.ndarray:
        n_max = int(self.q_max / z)
        return z * np.arange(1, n_max + 1, dtype=float)

    def e_ad(self, z: float) -> float:
        """Adimensional free energy at z from the tabulated determinant."""
        if z <= 0:
            raise ValueError("z must be > 0 (zero-T limit by quadrature)")
        q = self.sum_weights(z)
        s = 0.5 * self.g0 + float(np.sum(self.g_of_q(q)))
        return z * s / self.r**6

    def s_ad(self, z: float) -> float:
        """Adimensional entropy -dE_ad/dz from the tabulated slope g'/g
        (the first call on a table evaluates it)."""
        if z <= 0:
            raise ValueError("z must be > 0")
        q = self.sum_weights(z)
        s = 0.5 * self.g0 + float(np.sum(self.g_of_q(q)))
        sp = float(np.sum(q * self.gprime_of_q(q)))
        return -(s + sp) / self.r**6

    def e_ad_zero_T(self) -> float:
        """Adimensional zero-temperature energy from the tabulated integrand."""
        qd = np.linspace(self._q[0], self._q[-1], 20001)
        gi = -np.exp(self._spl(qd))
        core = float(np.trapezoid(gi, qd))
        head = 0.5 * (self.g0 - math.exp(self._spl(self._q[0]))) * self._q[0]
        return (core + head) / self.r**6
