"""The physical translation block U12 of one m, by a direct p-sum.

Production never forms U: the round-trip assembly reads the scaled
anti-diagonal sums of ``translation._scaled_sums`` into A~.  The tests
take U from here instead, one entry at a time over the full coupling
tensors, and check it against the dipole closed forms, the field
expansion of translated waves and the addition theorem; the production
sums are checked against it.  Unlike the rest of this package it reads
the production coupling tensors, through ``PackedCouplings.diagonals()``:
what it checks is the p-sum assembly, not the tensors, which
``test_translation`` compares with their defining formula.
"""

from __future__ import annotations

import math

import numpy as np

from casimir_spheres import specfun
from casimir_spheres import translation as tr


def expand(g: tr.PackedCouplings) -> tuple[np.ndarray, np.ndarray]:
    """(GA, GB) of shape (n, n, 2 l_max + 2) from the packed l <= l' half,
    the half l > l' filled by U[l', l] = (-1)^{l+l'} U[l, l']."""
    n = g.n
    ga = np.zeros((n, n, 2 * g.l_max + 2))
    gb = np.zeros_like(ga)
    i, j, off = tr.antidiagonal_pairs(n)
    # GA sits on p = P-1, P-3, ... and GB on P, P-2, ..., P = l + l' + 1
    for s, (a, b) in enumerate(g.diagonals()):
        k = slice(off[s], off[s + 1])
        big_p = 2 * g.l0 + 1 + s
        ga[i[k], j[k], big_p - 1::-2] = a
        if g.m:
            gb[i[k], j[k], big_p::-2] = b
    sign = np.where((i + j) % 2 == 0, 1.0, -1.0)[:, None]
    ga[j, i] = sign * ga[i, j]
    gb[j, i] = sign * gb[i, j]
    return ga, gb


def direct_block(m: int, x: float, l_max: int,
                 radial: str = "outgoing") -> np.ndarray:
    """Block of one m over channels (P, l), P in (M, E), l = max(1, |m|)..
    l_max, summed over p entry by entry.

    ``radial='outgoing'`` sums k_p(x) e^{+x} and gives U12 e^{x}, the
    out-to-regular translation scaled by its decay.  ``'regular'`` sums
    i_p(x) and gives the regular-to-regular block R (R(0) = I): relative
    to the outgoing sum the radial rotation leaves a factor -(pi/2) (-1)^p,
    the latter acting as a parity conjugation, and the destination gauge
    sign folded into the tensors is mirrored on the source side.  For
    m < 0 the mixing sector flips sign relative to |m|.
    """
    l0 = max(1, abs(m))
    ga, gb = expand(tr.coupling_tensors(abs(m), l0, l_max))
    xs = np.array([x])
    if radial == "outgoing":
        rad = np.exp(tr._radial_ladder(xs, l_max)[0])
    else:
        rad = np.exp(specfun.log_scaled_iv_ladder_vec(ga.shape[2] - 1, xs)[0]
                     + 0.5 * math.log(math.pi / (2.0 * x)) + x)
    same, cross = ga @ rad, gb @ rad
    if m < 0:
        cross = -cross
    out = np.block([[same, cross], [cross, same]])
    if radial == "regular":
        d = tr.parity_signs(l0, l_max)
        ls = np.arange(l0, l_max + 1)
        lam = np.concatenate([np.where(ls % 2 == 0, -1.0, 1.0)] * 2)
        out = -(math.pi / 2.0) * (d * lam)[:, None] * out * d[None, :]
    return out
