import math

import numpy as np
import pytest

from casimir_spheres import roundtrip as rt
from casimir_spheres import scattering, translation
from casimir_spheres.errors import NonConvergenceError
from casimir_spheres.geometry import Geometry


def test_vanishing_radius_limit():
    """N -> 0 as R -> 0: the log-determinant goes to zero like r^6."""
    vals = []
    for r in (1e-2, 1e-3):
        g, _ = rt.logdet_batch(r, np.array([1.0]), 4)
        vals.append(g[0])
    assert abs(vals[1]) < 1e-5 * abs(vals[0])
    assert vals[1] == pytest.approx(0.0, abs=1e-16)


def test_dipole_limit_at_small_r():
    geo = Geometry.from_ratio(0.01)
    _, g, _ = rt._converged_l_max(geo.r, np.array([1.0]), 1e-10)
    dip = rt.dipole_trace(geo, 1.0)
    assert abs(g[0] / dip - 1.0) < 1e-3


def test_determinant_vs_trace_bound():
    """|logdet - (-Tr N)| / |logdet| <= 8 r^2 for r <= 0.02.

    The leading correction beyond the dipole trace is the l = 1 <-> 2
    mixing channel, which enters the determinant at relative order r^2
    with an O(5) coefficient (measured 5.1-12 over the grid).
    """
    for r in (0.01, 0.02):
        geo = Geometry.from_ratio(r)
        for q in (0.1, 1.0, 5.0):
            _, g, _ = rt._converged_l_max(r, np.array([q]), 1e-10)
            dip = rt.dipole_trace(geo, q)
            dev = abs(g[0] - dip) / abs(g[0])
            assert dev <= 15.0 * r**2
            assert dev >= 0.5 * r**2  # the channel is really there


def test_dipole_trace_polynomial_form(testdata):
    data = testdata("dipole_summand_oracle.json")
    for case in data["cases"]:
        geo = Geometry.from_ratio(case["r"])
        got = rt.dipole_trace(geo, case["q"])
        assert got == pytest.approx(float(case["value"]), rel=1e-10)


def test_dipole_trace_r6_scaling():
    g1 = rt.dipole_trace(Geometry.from_ratio(0.05), 1.0)
    g2 = rt.dipole_trace(Geometry.from_ratio(0.10), 1.0)
    assert g2 / g1 == pytest.approx(64.0, rel=1e-12)


def test_dipole_trace_decays():
    # exp(-2 q d) decay wins over the quartic polynomial growth
    geo = Geometry.from_ratio(0.1)
    assert abs(rt.dipole_trace(geo, 50.0)) < 1e-35 * abs(rt.dipole_trace(geo, 0.1))


def test_truncation_monotonicity():
    """|logdet| is nondecreasing in l_max (within numerical noise)."""
    for r in (0.1, 0.3, 0.45):
        for q in (0.1, 1.0, 5.0):
            vals = []
            for l_max in (6, 12, 24, 48):
                g, _ = rt.logdet_batch(r, np.array([q]), l_max)
                vals.append(abs(g[0]))
            for a, b in zip(vals, vals[1:]):
                assert b >= a * (1.0 - 1e-7)


def test_block_m_symmetry():
    """log det(I - N) is the same for the m and -m blocks, and equals the
    production block log-det.

    The -m block flips the sign of the mixing sector, a similarity by
    diag(1, -1) over (M, E) that commutes with T and with the parity D.
    Both N here are built from the physical translation blocks and the
    same T diagonal; :func:`roundtrip._block_logdets` instead builds the
    scaled A~ by its own kernel and takes the spectrum of M.
    """
    geo = Geometry.from_ratio(0.3)
    kappa, l_max = 1.0, 4
    q = np.array([kappa * geo.d])
    lt_m, lt_e = scattering.t_scaled_log_vec(l_max, q * geo.r)
    rad = translation._radial_ladder(q, l_max)
    y = kappa * geo.R
    for m in (1, 2):
        t = np.concatenate([-np.exp(lt_m[0, m - 1:] + 2.0 * y),
                            np.exp(lt_e[0, m - 1:] + 2.0 * y)])
        eye = np.eye(t.size)
        logdets = []
        for mm in (m, -m):
            blk = translation.translation_block(mm, kappa * geo.d, l_max)
            scale = math.exp(blk.scaling_exponent)
            u12 = blk.entries * scale
            u21 = blk.reversed().entries * scale
            sign, logabs = np.linalg.slogdet(
                eye - (t[:, None] * u12) @ (t[:, None] * u21))
            assert sign > 0.0
            logdets.append(logabs)
        assembled = rt._block_logdets(m, l_max, q, geo.r, lt_m, lt_e, rad)[0]
        assert logdets[0] < -1e-6
        assert logdets[1] == pytest.approx(logdets[0], rel=1e-12)
        assert assembled == pytest.approx(logdets[0], rel=1e-12)


def test_logdet_negative_and_converged():
    for r, q, tol in ((0.1, 0.5, 1e-8), (0.45, 1.0, 1e-6)):
        l_max, g, change = rt._converged_l_max(r, np.array([q]), tol)
        assert g[0] < 0
        assert 0 <= change < tol
        # the stage the ladder certifies, at its m-sum tolerance
        g_at, m_used = rt.logdet_batch(r, np.array([q]), l_max,
                                       m_rel_tol=0.05 * tol)
        assert m_used <= l_max
        assert g[0] == g_at[0]


def test_nonconvergence_error_on_tiny_ceiling():
    with pytest.raises(NonConvergenceError):
        rt._converged_l_max(0.45, np.array([1.0]), 1e-12, l_ceiling=8)


def test_against_independent_determinant_oracle(testdata):
    """Direct unscaled mpmath/sympy assembly at fixed l_max (golden values);
    the q = 0 cases check the closed-form static limit over the whole m-sum.

    A case may carry its own ``rtol``; the default is 2e-10.  The check is
    relative only: some cases lie far below pytest's default absolute
    tolerance of 1e-12."""
    data = testdata("determinant_oracle.json")
    for case in data["cases"]:
        r, q, l_max = case["r"], case["q"], case["l_max"]
        if case["m_values"] is None:
            got, _ = rt.logdet_batch(r, np.array([q]), l_max, m_rel_tol=0.0)
            got = got[0]
        else:
            from casimir_spheres import scattering
            lt_m, lt_e = scattering.t_scaled_log_vec(l_max, np.array([q * r]))
            rad = translation._radial_ladder(np.array([q]), l_max)
            got = 0.0
            for m in case["m_values"]:
                w = 1.0 if m == 0 else 2.0
                got += w * rt._block_logdets(m, l_max, np.array([q]), r,
                                             lt_m, lt_e, rad)[0]
        assert got == pytest.approx(float(case["value"]),
                                    rel=case.get("rtol", 2e-10), abs=0.0)


@pytest.mark.parametrize("q", [-1e-3, math.nan, math.inf])
def test_logdet_batch_rejects_frequencies_outside_the_domain(q):
    with pytest.raises(ValueError, match="finite and >= 0"):
        rt.logdet_batch(0.3, np.array([0.5, q]), 8)


def test_static_rows_anywhere_in_a_sliced_batch(monkeypatch):
    """q = 0 rows may sit anywhere in a batch taken in slices, whose
    ladders hold the q > 0 rows only: every frequency gets its value from
    a batch of one."""
    monkeypatch.setattr(rt, "_Q_SLICE", 3)
    q = np.array([0.0, 0.5, 0.0, 2.0, 1.0, 0.0, 0.0, 3.0])
    g, _ = rt.logdet_batch(0.3, q, 8, m_rel_tol=0.0)
    alone = [rt.logdet_batch(0.3, [x], 8, m_rel_tol=0.0)[0][0] for x in q]
    assert g == pytest.approx(alone, rel=1e-13, abs=0.0)


def test_spectral_radius_guard_on_physical_inputs():
    # deep in the allowed regime the determinant is always in (0, 1)
    g, _ = rt.logdet_batch(0.49, np.array([0.2]), 30)
    assert g[0] < 0.0


def test_static_determinant_approaches_proximity_scale():
    """The static (kappa = 0) determinant must grow toward the
    proximity-force classical value -zeta(3) r/(4 (1-2r)) as the spheres
    approach; the ratio rises monotonically and reaches ~0.38 at r = 0.45.

    This is the physics-level regression for the destination-sign gauge of
    the translation couplings: with a wrong relative sign between l
    channels the ratio saturates two orders of magnitude low.
    """
    zeta3 = 1.2020569031595942854
    ratios = []
    for r, l_max in ((0.3, 30), (0.4, 40), (0.45, 60)):
        g, _ = rt.logdet_batch(r, np.array([0.0]), l_max)
        pfa = -zeta3 * r / (4.0 * (1.0 - 2.0 * r))
        ratios.append(g[0] / pfa)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 0.30 < ratios[-1] < 0.55
    assert ratios[0] > 0.02


def test_determinant_oracle_raises_when_its_lu_loses_all_digits(monkeypatch):
    """A zero determinant from the oracle's LU is an error naming the block
    and the working precision, not a log of -inf."""
    from oracles import determinant as oracle
    monkeypatch.setattr(oracle.mp, "det", lambda a: oracle.mp.mpf(0))
    with pytest.raises(ArithmeticError, match=r"m = 2 at mp.dps = \d+.*raise dps"):
        oracle.logdet_oracle(0.45, 1.0, 3, m_values=[2])


def _full_atilde_reference(m, l_max, q, r, lt_m, lt_e):
    """gap * A~ over all (l, l') pairs, one direct p-sum per entry.

    Every entry is summed from the full coupling tensors, with no
    anti-diagonal batching and no mirror: the round-trip assembly's
    reference for its packed half.  ``lt_m``, ``lt_e`` are the T-matrix
    log ladders at this q, shape (l_max,).
    """
    from casimir_spheres.specfun import log_khat_spherical_ladder_vec
    l0 = max(1, m)
    n = l_max - l0 + 1
    ga, gb = translation.coupling_tensors(m, l0, l_max).expand()
    ps = np.arange(ga.shape[2])
    qa = np.array([q])
    rad = (math.log(math.pi / 2.0) + log_khat_spherical_ladder_vec(ps[-1], qa)[0]
           - (ps + 1.0) * math.log(q))
    lth = 0.5 * np.concatenate([lt_m[l0 - 1:], lt_e[l0 - 1:]])
    ls = np.arange(n)
    big_p = 2 * l0 + 1 + ls[:, None] + ls[None, :]
    below = ps[None, None, :] <= big_p[:, :, None]
    w = np.exp(np.where(below, rad[None, None, :] - rad[big_p][:, :, None],
                        0.0)) * below
    same = np.sum(ga * w, axis=2)
    cross = np.sum(gb * w, axis=2)
    sums = np.block([[same, cross], [cross, same]])
    expo = ((lth[:, None] + lth[None, :])
            + (np.tile(rad[big_p], (2, 2)) - q * (1.0 - 2.0 * r)))
    return sums * np.exp(expo)


@pytest.mark.parametrize("m", [0, 1, 5, 20])
def test_one_way_operator_symmetric_and_mirror_exact(m):
    """M = e^{-q(1-2r)} sigma A~ D is symmetric, and the packed l <= l' half
    mirrored by (-1)^{l+l'} is the directly summed A~, mixing blocks
    included (r = 0.41, l_max 48)."""
    r, l_max = 0.41, 48
    l0 = max(1, m)
    n = l_max - l0 + 1
    sigma = np.concatenate([-np.ones(n), np.ones(n)])
    dpar = translation.parity_signs(l0, l_max)
    qs = np.array([1e-3, 0.3, 3.0, 20.0])
    lt_m, lt_e = scattering.t_scaled_log_vec(l_max, qs * r)
    rad = translation._radial_ladder(qs, l_max)
    one_way = rt._one_way(rt._atilde_batch(m, l0, l_max, qs, r, lt_m, lt_e,
                                           rad), l0, l_max)
    for k, q in enumerate(qs):
        mk = one_way[k]
        assert (np.max(np.abs(mk - mk.T))
                <= 1e-13 * np.max(np.abs(mk))), (m, q)
        got = sigma[:, None] * mk * dpar[None, :]
        ref = _full_atilde_reference(m, l_max, q, r, lt_m[k], lt_e[k])
        for rows in (slice(0, n), slice(n, 2 * n)):
            for cols in (slice(0, n), slice(n, 2 * n)):
                scale = np.max(np.abs(ref[rows, cols]))
                assert (np.max(np.abs(got[rows, cols] - ref[rows, cols]))
                        <= 1e-14 * scale), (m, q, rows, cols)


def test_trace_budget_against_exact_path_and_series_values():
    """The m-sum with the -tr N shortcut agrees with the exact eigvalsh path
    within its stated bound, and within 1e-11 with values frozen from the
    six-term trace series evaluation it replaced (r = 0.41, l_max 48)."""
    r, l_max, m_tol = 0.41, 48, 5e-11
    q_max = 42.0 / (2.0 * (1.0 - 2.0 * r))
    grid = np.unique(np.concatenate([
        np.geomspace(1e-3, 1.0, 80, endpoint=False),
        np.linspace(1.0, q_max, 360)]))[::20]
    g, m_max = rt.logdet_batch(r, grid, l_max, m_rel_tol=m_tol)
    lt_m, lt_e = scattering.t_scaled_log_vec(l_max, grid * r)
    rad = translation._radial_ladder(grid, l_max)
    exact = sum((1.0 if m == 0 else 2.0)
                * rt._block_logdets(m, l_max, grid, r, lt_m, lt_e, rad)
                for m in range(m_max + 1))
    # each block m >= 1 drops at most 1e-2 m_tol of |g|
    assert np.all(np.abs(g - exact) <= 1e-2 * m_tol * m_max * np.abs(exact))
    series = np.array([
        -0.1489392706258343, -0.14893891125694425, -0.1489276600642687,
        -0.14859352141742105, -0.140644570530541, -0.02472450019955426,
        -0.002699374642798388, -0.00027738755303822614,
        -2.7942673908946125e-05, -2.7896069556733623e-06,
        -2.7715813903910227e-07, -2.7457689489309437e-08,
        -2.7151599246222534e-09, -2.6814979248526223e-10,
        -2.645865878931384e-11, -2.6089699748060337e-12,
        -2.57128877173571e-13, -2.533156698539893e-14,
        -2.4948133175414777e-15, -2.4564336770620353e-16,
        -2.418147706913156e-17, -2.3800530041827913e-18])
    assert np.all(np.abs(g / series - 1.0) <= 1e-11)


def test_logdet_batch_served_from_a_larger_build_equals_cold_run(monkeypatch):
    """At l_max 48, logdet_batch after an l_max-115 run reads views of the
    115 coupling tensors and returns a cold run's values bit for bit."""
    store = translation._CouplingStore()
    monkeypatch.setattr(translation, "_coupling_tensors_cached", store)
    r, q, m_tol = 0.41, np.array([1e-3, 0.3, 3.0, 20.0]), 5e-11
    cold, m_cold = rt.logdet_batch(r, q, 48, m_rel_tol=m_tol)
    store.cache_clear()
    rt.logdet_batch(r, q, 115, m_rel_tol=m_tol)
    misses = store.cache_info().misses
    warm, m_warm = rt.logdet_batch(r, q, 48, m_rel_tol=m_tol)
    assert store.cache_info().misses == misses
    assert m_warm == m_cold
    assert np.array_equal(warm, cold)
