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
    res = rt.logdet_one_minus_n(geo, 1.0, tol=1e-10)
    dip = rt.dipole_trace(geo, 1.0)
    assert res.converged
    assert abs(res.value / dip - 1.0) < 1e-3


def test_determinant_vs_trace_bound():
    """|logdet - (-Tr N)| / |logdet| <= 8 r^2 for r <= 0.02.

    The leading correction beyond the dipole trace is the l = 1 <-> 2
    mixing channel, which enters the determinant at relative order r^2
    with an O(5) coefficient (measured 5.1-12 over the grid).
    """
    for r in (0.01, 0.02):
        geo = Geometry.from_ratio(r)
        for q in (0.1, 1.0, 5.0):
            res = rt.logdet_one_minus_n(geo, q, tol=1e-10)
            dip = rt.dipole_trace(geo, q)
            dev = abs(res.value - dip) / abs(res.value)
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
    round-trip assembly's block.

    The -m block flips the sign of the mixing sector, a similarity by
    diag(1, -1) over (M, E) that commutes with T and with the parity D.
    Both N here are built from the physical translation blocks and the
    same T diagonal; the assembly instead builds the scaled A~ by its own
    kernel.
    """
    geo = Geometry.from_ratio(0.3)
    kappa, l_max = 1.0, 4
    tmat = scattering.tmatrix_block(kappa * geo.R, l_max)
    for m in (1, 2):
        t = np.concatenate([tmat.diag_mm[m - 1:], tmat.diag_ee[m - 1:]])
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
        sign, assembled = np.linalg.slogdet(
            eye - rt.roundtrip_block(geo, kappa, m, l_max).matrix)
        assert sign > 0.0
        assert logdets[0] < -1e-6
        assert logdets[1] == pytest.approx(logdets[0], rel=1e-12)
        assert assembled == pytest.approx(logdets[0], rel=1e-12)


def test_logdet_negative_and_converged():
    for r, q, tol in ((0.1, 0.5, 1e-8), (0.45, 1.0, 1e-6)):
        res = rt.logdet_one_minus_n(Geometry.from_ratio(r), q, tol=tol)
        assert res.value < 0
        assert res.converged
        assert res.est_truncation_error >= 0
        assert res.m_max_used <= res.l_max_used


def test_nonconvergence_error_on_tiny_ceiling():
    with pytest.raises(NonConvergenceError):
        rt.logdet_one_minus_n(Geometry.from_ratio(0.45), 1.0, tol=1e-12,
                              l_ceiling=8)


def test_against_independent_determinant_oracle(testdata):
    """Direct unscaled mpmath/sympy assembly at fixed l_max (golden values)."""
    data = testdata("determinant_oracle.json")
    for case in data["cases"]:
        r, q, l_max = case["r"], case["q"], case["l_max"]
        if case["m_values"] is None:
            got, _ = rt.logdet_batch(r, np.array([q]), l_max, m_rel_tol=0.0)
            got = got[0]
        else:
            from casimir_spheres import scattering
            lt_m, lt_e = scattering.t_scaled_log_vec(l_max, np.array([q * r]))
            got = 0.0
            for m in case["m_values"]:
                w = 1.0 if m == 0 else 2.0
                got += w * rt._block_logdets(m, l_max, np.array([q]), r,
                                             lt_m, lt_e)[0]
        assert got == pytest.approx(float(case["value"]), rel=2e-10)


def test_spectral_radius_guard_on_physical_inputs():
    # deep in the allowed regime the determinant is always in (0, 1)
    g, _ = rt.logdet_batch(0.49, np.array([0.2]), 30)
    assert g[0] < 0.0


def test_static_limit_approaches_proximity_scale():
    """The static (kappa -> 0) determinant must grow toward the
    proximity-force classical value -zeta(3) r/(4 (1-2r)) as the spheres
    approach; the ratio rises monotonically and reaches ~0.38 at r = 0.45.

    This is the physics-level regression for the destination-sign gauge of
    the translation couplings: with a wrong relative sign between l
    channels the ratio saturates two orders of magnitude low.
    """
    zeta3 = 1.2020569031595942854
    ratios = []
    for r, l_max in ((0.3, 30), (0.4, 40), (0.45, 60)):
        g, _ = rt.logdet_batch(r, np.array([1e-3]), l_max)
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
