import math

import numpy as np
import pytest

from casimir_spheres import specfun
from casimir_spheres import translation as tr
from casimir_spheres.translation import (coupling_tensors,
                                         dipole_translation_limit,
                                         parity_signs, translation_block,
                                         wigner3j_000)


def exact_w3j(l1, l2, p, m1, m2, m3):
    from sympy.physics.wigner import wigner_3j
    return float(wigner_3j(l1, l2, p, m1, m2, m3))


def test_wigner_000_exact():
    for l1 in range(0, 7):
        for l2 in range(0, 7):
            for p in range(0, l1 + l2 + 2):
                got = float(wigner3j_000(np.array([l1]), np.array([l2]),
                                         np.array([p]))[0])
                assert got == pytest.approx(exact_w3j(l1, l2, p, 0, 0, 0),
                                            abs=1e-14)


def test_wigner_mseq_exact():
    for m in (1, 2, 4):
        for l in range(max(1, m), 7):
            for lp in range(max(1, m), 7):
                seq = tr._wigner3j_mseq(m, np.array([float(l)]),
                                        np.array([float(lp)]), 2 * 7 + 2)[0]
                for p in range(0, l + lp + 1):
                    assert seq[p] == pytest.approx(
                        exact_w3j(l, lp, p, m, -m, 0), abs=1e-13)


def test_block_requires_m_within_l_max():
    with pytest.raises(ValueError):
        translation_block(4, 1.0, 3)
    with pytest.raises(ValueError):
        translation_block(0, 0.0, 3)


def test_m_conservation_structure():
    """Assembling the full operator from per-m blocks leaves no m-mixing
    entries: channels with m != m' are never even represented."""
    l_max = 3
    blocks = {m: translation_block(m, 1.3, l_max) for m in range(-l_max, l_max + 1)}
    # full channel list (l, m, P): the full matrix is block diagonal by m
    dims = {m: blocks[m].entries.shape[0] for m in blocks}
    total = sum(dims.values())
    full = np.zeros((total, total))
    offset = {}
    pos = 0
    for m in sorted(blocks):
        offset[m] = pos
        n = dims[m]
        full[pos:pos + n, pos:pos + n] = blocks[m].entries
        pos += n
    for m1 in sorted(blocks):
        for m2 in sorted(blocks):
            if m1 == m2:
                continue
            sub = full[offset[m1]:offset[m1] + dims[m1],
                       offset[m2]:offset[m2] + dims[m2]]
            assert np.all(sub == 0.0)


def test_parity_relation_entrywise():
    blk = translation_block(2, 3.7, 6)
    rev = blk.reversed()
    d = parity_signs(blk.l_min, blk.l_max)
    expect = d[:, None] * blk.entries * d[None, :]
    assert np.max(np.abs(rev.entries - expect)) <= 1e-13 * np.max(np.abs(expect))
    # polarization-preserving sector: U21 = (-1)^{l+l'} U12
    n = blk.n_l
    ls = np.arange(blk.l_min, blk.l_max + 1)
    par = (-1.0) ** (ls[:, None] + ls[None, :])
    assert np.allclose(rev.entries[:n, :n], par * blk.entries[:n, :n],
                       rtol=1e-13, atol=0)


def test_negative_m_flips_cross_sector():
    for m in (1, 2):
        plus = translation_block(m, 2.2, 5)
        minus = translation_block(-m, 2.2, 5)
        n = plus.n_l
        assert np.allclose(plus.entries[:n, :n], minus.entries[:n, :n], rtol=1e-14)
        assert np.allclose(plus.entries[:n, n:], -minus.entries[:n, n:], rtol=1e-14)


def test_dipole_closed_forms_match_assembly():
    for q in (0.4, 1.0, 7.0, 25.0):
        dip = dipole_translation_limit(q)
        for m in (-1, 0, 1):
            blk = translation_block(m, q, 1)
            ent = blk.entries * math.exp(blk.scaling_exponent)
            assert np.allclose(ent, dip.block(m), rtol=1e-12, atol=1e-300)


def test_dipole_static_divergence_and_decay():
    small = dipole_translation_limit(1e-4)
    assert abs(small.same_m0) == pytest.approx(3.0 / 1e-12, rel=1e-3)
    big_q = 30.0
    big = dipole_translation_limit(big_q)
    # couplings decay as e^{-q}; a 2q round trip gives e^{-2q}
    assert abs(big.same_m1) == pytest.approx(
        1.5 * math.exp(-big_q) * (1 + big_q + big_q**2) / big_q**3, rel=1e-12)


def _direct_block(m, x, l_max, radial):
    """Full 2n x 2n block of one m >= 0 by a direct p-sum over the
    expanded coupling tensors, both halves summed, no scaling by k_P.

    ``radial='outgoing'`` sums k_p(x) e^{+x} and gives the scaled
    out-to-regular block of :func:`translation_block`.  ``'regular'`` sums
    i_p(x) and gives the regular-to-regular block R (R(0) = I): relative to
    the outgoing sum the radial rotation leaves a factor -(pi/2) (-1)^p,
    the latter acting as a parity conjugation, and the destination gauge
    sign folded into the tensors is mirrored on the source side.
    """
    l0 = max(1, m)
    ga, gb = coupling_tensors(m, l0, l_max).expand()
    xs = np.array([x])
    if radial == "outgoing":
        rad = np.exp(tr._radial_ladder(xs, l_max)[0])
    else:
        rad = np.exp(specfun.log_scaled_iv_ladder_vec(ga.shape[2] - 1, xs)[0]
                     + 0.5 * math.log(math.pi / (2.0 * x)) + x)
    same, cross = ga @ rad, gb @ rad
    out = np.block([[same, cross], [cross, same]])
    if radial == "regular":
        d = parity_signs(l0, l_max)
        ls = np.arange(l0, l_max + 1)
        lam = np.concatenate([np.where(ls % 2 == 0, -1.0, 1.0)] * 2)
        out = -(math.pi / 2.0) * (d * lam)[:, None] * out * d[None, :]
    return out


@pytest.mark.parametrize("x", [3.0, 30.0])
@pytest.mark.parametrize("m", [0, 1, 7])
def test_translation_block_matches_direct_p_sum(m, x):
    """The block built from the round-trip assembly's scaled anti-diagonal
    sums, mirrored to l > l', equals the direct p-sum of every entry."""
    blk = translation_block(m, x, 48)
    ref = _direct_block(m, x, 48, "outgoing")
    assert (np.max(np.abs(blk.entries - ref))
            <= 1e-13 * np.max(np.abs(ref))), (m, x)


def test_translation_block_raises_when_entries_overflow():
    """At kappa_d = 1e-3 and l_max 48, k_P e^{kappa_d} passes 1e308."""
    with pytest.raises(OverflowError, match="overflow"):
        translation_block(1, 1e-3, 48)


def test_translation_composition_semigroup():
    """U(x1+x2) = U(x2) R(x1) with R the regular-regular block: a functional
    identity independent of the dipole anchor, validating every m."""
    l_in, l_out = 44, 4
    x1, x2 = 0.6, 2.0
    for m in (0, 1, 2, 3):
        l0 = max(1, m)
        u_tot = translation_block(m, x1 + x2, l_in).entries * math.exp(-(x1 + x2))
        r1 = _direct_block(m, x1, l_in, "regular")
        u2 = translation_block(m, x2, l_in).entries * math.exp(-x2)
        comp = u2 @ r1
        n = l_in - l0 + 1
        k = l_out - l0 + 1

        def corner(mat):
            out = np.empty((2 * k, 2 * k))
            out[:k, :k] = mat[:k, :k]
            out[:k, k:] = mat[:k, n:n + k]
            out[k:, :k] = mat[n:n + k, :k]
            out[k:, k:] = mat[n:n + k, n:n + k]
            return out

        t = corner(u_tot)
        err = np.max(np.abs(corner(comp) - t)) / np.max(np.abs(t))
        assert err < 5e-11, (m, err)


def test_regular_block_identity_at_zero():
    for m in (0, 2):
        r_blk = _direct_block(m, 1e-9, 5, "regular")
        assert np.max(np.abs(r_blk - np.eye(r_blk.shape[0]))) < 1e-7


def test_entries_finite_at_large_kappa_d():
    blk = translation_block(1, 1e4, 4)
    assert np.all(np.isfinite(blk.entries))
    assert blk.scaling_exponent == -1e4


@pytest.mark.parametrize("x", [100.0, 200.0])
def test_translation_block_against_50_digit_p_sum(x):
    """At kappa_d of the production tables (q_max = 117 at r = 0.41) the
    block matches a 50-digit p-sum of the same float coupling tensors with
    exact radial factors k_p(x) e^x = sqrt(pi / 2x) K_{p+1/2}(x) e^x:
    within 1e-12 of the block maximum (measured 7.5e-14 at 100 and 3.1e-13
    at 200) and 2e-11 per entry (measured 1.0e-12 and 5.2e-12)."""
    import mpmath as mp
    m, l_max = 3, 8
    ga, gb = coupling_tensors(m, m, l_max).expand()
    with mp.workdps(50):
        xm = mp.mpf(x)
        rad = [mp.sqrt(mp.pi / (2 * xm)) * mp.besselk(p + mp.mpf(1) / 2, xm)
               * mp.exp(xm) for p in range(ga.shape[2])]

        def p_sum(g):
            return np.array([[float(mp.fsum(mp.mpf(float(v)) * k
                                            for v, k in zip(row, rad)))
                              for row in rows] for rows in g])

        same, cross = p_sum(ga), p_sum(gb)
    ref = np.block([[same, cross], [cross, same]])
    err = np.abs(translation_block(m, x, l_max).entries - ref)
    assert np.max(err) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(err / np.abs(ref)) <= 2e-11


def test_coupling_tensor_transposition():
    """Couplings obey U[l', l] = (-1)^{l+l'} U[l, l'] in both sectors."""
    l0, l_max = 2, 6
    ga, gb = coupling_tensors(2, l0, l_max).expand()
    ls = np.arange(l0, l_max + 1)
    par = (-1.0) ** (ls[:, None] + ls[None, :])
    assert np.allclose(np.swapaxes(ga, 0, 1), par[:, :, None] * ga,
                       rtol=1e-12, atol=1e-15)
    assert np.allclose(np.swapaxes(gb, 0, 1), par[:, :, None] * gb,
                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("m", [1, 7, 20])
@pytest.mark.parametrize("l, lp", [(40, 40), (57, 31), (96, 115), (115, 115)])
def test_wigner_mseq_exact_at_production_l(l, lp, m):
    """Exact symbols at the l the l_max ladder reaches: both ends of the
    p range and around the glue point p* of the two sweeps."""
    seq = tr._wigner3j_mseq(m, np.array([float(l)]), np.array([float(lp)]),
                            2 * max(l, lp) + 2)[0]
    p_min, p_max = abs(l - lp), l + lp
    # the downward sweep's magnitude maximum, where the sweeps are glued
    p_star = int(np.argmax(np.abs(seq)))
    for p in {p_min, p_min + 1, p_star - 1, p_star, p_star + 1, p_max - 1,
              p_max}:
        assert seq[p] == pytest.approx(exact_w3j(l, lp, p, m, -m, 0),
                                       rel=1e-12, abs=1e-15), p
    assert np.all(seq[:p_min] == 0.0) and np.all(seq[p_max + 1:] == 0.0)


@pytest.mark.parametrize("m", [0, 1, 7])
def test_coupling_tensor_mirror_half_at_l_max_57(m):
    """The l > l' half of the tensors is the mirror of the l <= l' half;
    the Wigner symbols behind it are symmetric in (l, l')."""
    l0, l_max = max(1, m), 57
    ga, gb = coupling_tensors(m, l0, l_max).expand()
    ls = np.arange(l0, l_max + 1)
    par = (-1.0) ** (ls[:, None] + ls[None, :])
    lower = np.tril_indices(ls.size, -1)
    for g in (ga, gb):
        assert np.allclose(np.swapaxes(g, 0, 1)[lower],
                           (par[:, :, None] * g)[lower], rtol=1e-12, atol=0)
    if m:
        L, Lp = np.meshgrid(ls.astype(float), ls.astype(float), indexing="ij")
        w = tr._wigner3j_mseq(m, L.ravel(), Lp.ravel(), 2 * l_max + 2)
        w_swap = tr._wigner3j_mseq(m, Lp.ravel(), L.ravel(), 2 * l_max + 2)
        assert np.allclose(w, w_swap, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("l, m", [(200, 1), (200, 60), (200, 150), (600, 600)])
def test_wigner_mseq_finite_and_normalised_at_large_l(l, m):
    """l = l' = 200 is the l_max ceiling.  At l = l' = m = 600 the sweep
    from p_max grows past 1e308 before its peak, so only the overflow guard
    keeps it finite.  Every value stays finite, sum_p (2p+1) f^2 = 1, and
    (l, l, 0; m, -m, 0) = (-1)^{l-m} / sqrt(2l+1)."""
    seq = tr._wigner3j_mseq(m, np.array([float(l)]), np.array([float(l)]),
                            2 * l + 2)[0]
    assert np.all(np.isfinite(seq))
    ps = np.arange(seq.size)
    assert abs(np.sum((2 * ps + 1) * seq**2) - 1.0) < 1e-12
    assert seq[0] == pytest.approx((-1) ** (l - m) / math.sqrt(2 * l + 1),
                                   rel=1e-12)


@pytest.mark.parametrize("l, lp", [(100, 200), (120, 184), (150, 200),
                                   (200, 200)])
def test_wigner_mseq_m_orthogonality(l, lp):
    """sum_m (2p+1) (l l' p; m -m 0)(l l' p'; m -m 0) = delta_pp' over the
    whole p range: every m at once, including m near l where the sweeps
    are glued close to p_min."""
    p_len = l + lp + 1
    ps = np.arange(p_len)
    f0 = wigner3j_000(np.full(p_len, l), np.full(p_len, lp), ps)
    total = np.outer(f0, f0)
    # (l l' p; -m m 0) = (-1)^{l+l'+p} (l l' p; m -m 0)
    both = 1.0 + (-1.0) ** (ps[:, None] + ps[None, :])
    for m in range(1, min(l, lp) + 1):
        f = tr._wigner3j_mseq(m, np.array([float(l)]), np.array([float(lp)]),
                              p_len)[0]
        total += both * np.outer(f, f)
    p_min = abs(l - lp)
    gram = (2 * ps[p_min:, None] + 1) * total[p_min:, p_min:]
    assert np.max(np.abs(gram - np.eye(p_len - p_min))) < 1e-12


def test_wigner_mseq_exact_with_m_equal_l_at_l_200():
    """(150, 200, p; 150, -150, 0): the classically allowed range of p is
    narrow and far from both ends, so the glue point must lie inside it."""
    l, lp, m = 150, 200, 150
    seq = tr._wigner3j_mseq(m, np.array([float(l)]), np.array([float(lp)]),
                            l + lp + 1)[0]
    p_min, p_max = lp - l, l + lp
    p_peak = int(np.argmax(np.abs(seq)))
    for p in {p_min, p_min + 1, p_peak - 1, p_peak, p_peak + 1, p_max - 1,
              p_max}:
        assert seq[p] == pytest.approx(exact_w3j(l, lp, p, m, -m, 0),
                                       rel=1e-12, abs=1e-15), p


def _empty_store(monkeypatch):
    store = tr._CouplingStore()
    monkeypatch.setattr(tr, "_coupling_tensors_cached", store)
    return store


def _fresh(monkeypatch, m, l_max):
    """Packed tensors built from nothing, in a store of their own."""
    _empty_store(monkeypatch)
    return tr.coupling_tensors(m, max(1, m), l_max)


def _same_blocks(a, b):
    return a.n == b.n and all(
        np.array_equal(x, y) for da, db in zip(a.diagonals(), b.diagonals())
        for x, y in zip(da, db))


@pytest.mark.parametrize("m", [0, 1, 7])
def test_store_slice_of_larger_build_is_exact(monkeypatch, m):
    """The tensors at l_max 24 and 48 are read as views of one build at
    115, bit-identical to builds at 24 and 48."""
    store = _empty_store(monkeypatch)
    tr.coupling_tensors(m, max(1, m), 115)
    views = {L: tr.coupling_tensors(m, max(1, m), L) for L in (24, 48)}
    assert store.cache_info()[:2] == (2, 1)
    for L, view in views.items():
        assert _same_blocks(view, _fresh(monkeypatch, m, L)), L


@pytest.mark.parametrize("m", [0, 1, 7])
def test_store_growth_equals_fresh_build(monkeypatch, m):
    """Growing 48 -> 96 -> 115 computes only the pairs with l' above the
    held l_max and gives a fresh 115 build bit for bit."""
    store = _empty_store(monkeypatch)
    for L in (48, 96, 115):
        grown = tr.coupling_tensors(m, max(1, m), L)
    assert store.cache_info()[:2] == (0, 3)
    fresh = _fresh(monkeypatch, m, 115)
    assert _same_blocks(grown, fresh)
    assert grown.nbytes == fresh.nbytes


def test_store_evicts_least_recently_used_above_its_byte_bound(monkeypatch):
    """Under a bound that holds one m-block at a time the store evicts the
    least recently used block and rebuilds it exactly when asked again."""
    ref = {m: _fresh(monkeypatch, m, 30) for m in (1, 2, 3)}
    store = _empty_store(monkeypatch)
    monkeypatch.setattr(tr, "_COUPLING_STORE_BYTES",
                        int(1.5 * ref[1].nbytes))
    for m in (1, 2, 3, 1):
        assert _same_blocks(tr.coupling_tensors(m, m, 30), ref[m]), m
    info = store.cache_info()
    assert (info.hits, info.misses) == (0, 4)
    assert info.currsize == ref[1].nbytes <= info.maxsize
    assert store.held(1, 1) is not None and store.held(3, 3) is None
    # a larger request grows the held block and keeps only it
    assert _same_blocks(tr.coupling_tensors(1, 1, 40),
                        _fresh(monkeypatch, 1, 40))
