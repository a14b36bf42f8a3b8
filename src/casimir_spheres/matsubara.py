r"""Temperature machinery: Matsubara sums, zero-temperature quadrature,
the n = 0 static term, and a spline-accelerated determinant table.

The Casimir contribution to the Helmholtz free energy is

.. math::
    E = k_B T \,{\sum_n}' \; g(\kappa_n d), \qquad
    g(q) = \sum_m w_m \log\det(I - N_m(q/d)),

with Matsubara frequencies ``kappa_n = n / lambda_T`` and the n = 0 term
weighted by 1/2; g(0) is evaluated at q = 0, in closed form.  Everything
is computed in adimensional variables ``r = R/d``, ``z = d/lambda_T``,
``q = kappa d``; physical units enter only at the boundary.
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
from .errors import NonConvergenceError
from .geometry import Geometry, ThermalPoint

__all__ = ["Geometry", "ThermalPoint", "FreeEnergyResult", "free_energy",
           "zero_T_energy", "static_term", "DeterminantTable",
           "free_energy_ad", "zero_T_energy_ad"]

N_CEILING = 10**6

# Matsubara terms per logdet_batch call of free_energy
_CHUNK = 16

# the l_max ladder; every caller here goes through this module-level name
_converged_l_max = roundtrip._converged_l_max


@dataclass(frozen=True)
class FreeEnergyResult:
    """Free energy with per-term breakdown and convergence diagnostics."""

    energy: float
    n_terms_used: int
    per_term: list
    tail_bound: float
    method: str
    l_max_used: int = 0


def _sum_l_max(r: float, z: float, tol: float) -> int:
    """l_max of a Matsubara sum at (r, z): the ladder on the first chunk's
    frequencies and q = 0."""
    probe = np.concatenate([[0.0], z * np.arange(1, _CHUNK + 1.0)])
    l_max, _, _ = _converged_l_max(r, probe, tol)
    return l_max


def static_term(geometry: Geometry, tol: float = 1e-9) -> float:
    """g(0) = sum_m w_m log det(I - N_m) at kappa = 0, the value of the
    l_max ladder's certified stage.  Cached per (aspect ratio, tol): the
    limit is adimensional.
    """
    return _static_term_cached(geometry.r, tol)


@lru_cache(maxsize=256)
def _static_term_cached(r: float, tol: float) -> float:
    return float(_converged_l_max(r, np.array([0.0]), tol)[1][0])


def free_energy(geometry: Geometry, thermal: ThermalPoint, tol: float = 1e-9,
                l_max_hint: int | None = None) -> FreeEnergyResult:
    """Matsubara sum for the free energy at temperature T > 0.

    Terms are added until the current term is below ``tol`` times the
    accumulated sum and the geometric tail bound (from the ratio of the
    last two terms) is below ``tol`` times the sum.  T = 0 dispatches to
    :func:`zero_T_energy`.

    ``l_max_hint`` skips the sum's initial multipole-convergence ladder
    (useful for derivative stencils around a converged central geometry);
    the periodic in-sum confirmation still guards against a stale cutoff.
    """
    if thermal.T < 0:
        raise ValueError("temperature must be >= 0")
    if thermal.T == 0:
        return zero_T_energy(geometry, tol)
    z = thermal.z
    r = geometry.r
    kT = thermal.kT

    g0 = static_term(geometry, tol)
    per_term = [0.5 * kT * g0]
    acc = 0.5 * g0
    n = 1
    tail = math.inf
    g_prev = None
    done = False
    # converge the multipole cutoff once on the first chunk plus static-side
    # probes; later chunks reuse it.  The absolute truncation error shrinks
    # with frequency but the relative one grows (r = 0.41, l_max 48: 3e-14
    # at q <= 1, 4e-9 at q = 60), so every eighth chunk is confirmed
    l_max = _sum_l_max(r, z, tol) if l_max_hint is None else l_max_hint
    l_used = l_max
    chunk_idx = 0
    while n <= N_CEILING and not done:
        q = z * np.arange(n, n + _CHUNK, dtype=float)
        g, _ = roundtrip.logdet_batch(r, q, l_max,
                                      m_rel_tol=roundtrip._M_SHARE * tol)
        if chunk_idx % 8 == 7:
            change, _ = roundtrip._confirm(r, q, g, l_max, tol)
            if change > tol:
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
        n += _CHUNK
    if not done:
        raise NonConvergenceError(
            f"Matsubara sum did not converge within {N_CEILING} terms")
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
    nev = [0]

    def g_scalar(q: float) -> float:
        nev[0] += 1
        val, _ = roundtrip.logdet_batch(r, np.array([q]), l_max,
                                        m_rel_tol=roundtrip._M_SHARE * tol)
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
        # the ladder's certified stage has evaluated q = 0, its first
        # probe, at the table's l_max
        l_max, g_probe, _ = _converged_l_max(
            r, np.array([0.0, 0.3, 1.0, 3.0, 10.0]), self.tol,
            evaluate=self._logdet_batch)
        self.l_max_used = l_max
        self.g0 = float(g_probe[0])
        g = self._g_at(grid)
        # the determinant resolves |g| only down to machine epsilon; trim
        # the exhausted tail (its contribution is below any tolerance)
        keep = g < 0.0
        grid, g = grid[keep], g[keep]
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
        """Frequencies passed to logdet_batch: ladder probes, grid and new
        midpoints, plus the slope pairs once they are built."""
        return self._freqs

    def _logdet_batch(self, r, q, l_max, m_rel_tol):
        """:func:`roundtrip.logdet_batch`, counted in ``freqs_evaluated``."""
        self._freqs += len(q)
        return roundtrip.logdet_batch(r, q, l_max, m_rel_tol=m_rel_tol)

    def _g_at(self, q: np.ndarray) -> np.ndarray:
        """g at the table's l_max and m-sum tolerance."""
        g, _ = self._logdet_batch(self.r, q, self.l_max_used,
                                  m_rel_tol=roundtrip._M_SHARE * self.tol)
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
