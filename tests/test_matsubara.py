import math

import numpy as np
import pytest

from casimir_spheres import asymptotics as asy
from casimir_spheres import matsubara as mats
from casimir_spheres import roundtrip, thermo
from casimir_spheres.constants import HBAR_C, K_B
from casimir_spheres.errors import NonConvergenceError
from casimir_spheres.geometry import Geometry, ThermalPoint


def test_geometry_invariants():
    geo = Geometry.from_ratio(0.25, d=2.0)
    assert geo.R == pytest.approx(0.5)
    assert geo.ell == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Geometry(R=1.0, d=1.5)
    with pytest.raises(ValueError):
        Geometry.from_ratio(0.6)


def test_thermal_point_roundtrip():
    geo = Geometry.from_ratio(0.1, d=1e-6)
    tp = ThermalPoint.from_z(2.0, geo)
    assert tp.z == pytest.approx(2.0)
    assert geo.d / tp.lambda_T == pytest.approx(2.0, rel=1e-12)
    t0 = ThermalPoint.from_temperature(0.0, geo)
    assert t0.z == 0.0 and math.isinf(t0.lambda_T)


def test_classical_limit_coefficient():
    """E(z=50)/(-15 kT R^6/4 d^6) -> 1 at r = 0.01 (within 1 percent)."""
    ratio = mats.free_energy_ad(0.01, 50.0, tol=1e-9) / (-15.0 * 50.0 / 4.0)
    assert 0.99 <= ratio <= 1.01


def test_closed_form_agreement_at_unit_z():
    val = mats.free_energy_ad(0.01, 1.0, tol=1e-9)
    assert val == pytest.approx(float(asy.e_ad(1.0)), rel=1e-3)


def test_r6_scaling_of_energy():
    e1 = mats.free_energy_ad(0.005, 1.0, tol=1e-8)
    e2 = mats.free_energy_ad(0.01, 1.0, tol=1e-8)
    assert e2 / e1 == pytest.approx(1.0, rel=2e-3)  # E_ad is r-free at leading order


def test_zero_t_energy_coefficient():
    ratio = mats.zero_T_energy_ad(0.01, tol=1e-7) / (-143.0 / 8.0)
    assert 0.99 <= ratio <= 1.01


def test_zero_t_stronger_binding_at_close_separation():
    """|E| at r = 0.45 exceeds the dipole asymptotic prediction."""
    e45 = mats.zero_T_energy_ad(0.45, tol=1e-6)
    assert e45 < -143.0 / 8.0


def test_t_continuity_to_zero_temperature():
    lhs = mats.free_energy_ad(0.01, 0.01, tol=1e-9) / mats.zero_T_energy_ad(0.01, tol=1e-8)
    rhs = asy.e_low_T(0.01) / asy.e_low_T(0.0)
    assert abs(lhs - rhs) < 1e-4


def test_static_term_properties():
    geo = Geometry.from_ratio(0.01)
    st = mats.static_term(geo)
    assert st < 0
    assert st == pytest.approx(-7.5 * 0.01**6, rel=1e-3)


def test_static_term_node_ladder_consistency():
    """Extrapolations from two different node ladders agree tightly."""
    geo = Geometry.from_ratio(0.45)
    a = mats.static_term(geo, tol=1e-7)
    b = mats.static_term(geo, tol=1e-7, nodes=(1e-4, 5e-5, 2.5e-5))
    assert a == pytest.approx(b, rel=1e-6)


def test_high_temperature_only_static_survives():
    geo = Geometry.from_ratio(0.01)
    res = mats.free_energy(geo, ThermalPoint.from_z(50.0, geo), tol=1e-9)
    st = mats.static_term(geo)
    assert abs(res.energy / res.per_term[0] - 1.0) < 1e-6
    assert res.per_term[0] == pytest.approx(0.5 * ThermalPoint.from_z(50.0, geo).kT * st)


def test_per_term_negativity_and_tail():
    geo = Geometry.from_ratio(0.05)
    res = mats.free_energy(geo, ThermalPoint.from_z(1.0, geo), tol=1e-8)
    assert res.energy < 0
    assert all(t < 0 for t in res.per_term)
    assert res.tail_bound >= 0
    assert res.method == "matsubara_sum"
    assert res.n_terms_used == len(res.per_term)


def test_zero_temperature_dispatch():
    geo = Geometry.from_ratio(0.05, d=1e-6)
    res = mats.free_energy(geo, ThermalPoint.from_temperature(0.0, geo), tol=1e-6)
    assert res.method == "zero_T_quadrature"
    assert res.energy < 0


def test_free_energy_dimensional_consistency():
    """E in joules equals the adimensional value times hbar c R^6/(2 pi d^7)."""
    geo = Geometry.from_ratio(0.02, d=1e-6)
    tp = ThermalPoint.from_z(1.0, geo)
    res = mats.free_energy(geo, tp, tol=1e-8)
    conv = HBAR_C * geo.R**6 / (2.0 * math.pi * geo.d**7)
    assert res.energy / conv == pytest.approx(
        mats.free_energy_ad(0.02, 1.0, tol=1e-8), rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: free_energy drops "
                   "the terms its in-sum re-ladder does not return")
def test_free_energy_equals_plain_sum_after_in_sum_re_ladder():
    """At this point (the benchmark's points seed 3, op 13) the periodic
    confirmation re-ladders, and the re-ladder returns g for 8 of the 16
    frequencies of the chunk.  The Matsubara sum must still equal a plain
    sum over every n at the cutoff it reports."""
    r, z, tol = 0.16139686611245263, 0.11945630400245104, 1e-9
    geo = Geometry(R=r * 1e-6, d=1e-6)
    thermal = ThermalPoint.from_z(z, geo)
    res = mats.free_energy(geo, thermal, tol=tol)
    q = z * np.arange(1.0, math.floor(42.0 / (2.0 * (1.0 - 2.0 * r)) / z) + 1)
    g, _ = roundtrip.logdet_batch(r, q, res.l_max_used, m_rel_tol=0.05 * tol)
    plain = thermal.kT * (0.5 * mats.static_term(geo, tol) + float(np.sum(g)))
    assert res.energy == pytest.approx(plain, rel=3e-8, abs=0.0)


class _Recorder:
    """Every frequency passed to roundtrip.logdet_batch, tagged with the
    phase of the table: ``ladder`` inside the l_max ladder, else ``table``."""

    def __init__(self, monkeypatch):
        self.calls = []
        self.phase = "table"
        evaluate, ladder = roundtrip.logdet_batch, mats._converged_l_max

        def logdet_batch(r, q, l_max, m_rel_tol=1e-12):
            self.calls.append((self.phase, np.array(q, dtype=float)))
            return evaluate(r, q, l_max, m_rel_tol=m_rel_tol)

        def converged_l_max(*args, **kwargs):
            self.phase = "ladder"
            try:
                return ladder(*args, **kwargs)
            finally:
                self.phase = "table"

        monkeypatch.setattr(roundtrip, "logdet_batch", logdet_batch)
        monkeypatch.setattr(mats, "_converged_l_max", converged_l_max)

    def total(self) -> int:
        return sum(q.size for _, q in self.calls)


def test_table_evaluates_each_frequency_once_and_slopes_on_first_use(
        monkeypatch):
    rec = _Recorder(monkeypatch)
    tab = mats.DeterminantTable(0.3)
    assert tab.l_max_used == 16
    nodes = tab._q.size
    # the table's own calls: grid, static nodes, then one per refinement round
    table_calls = [q for phase, q in rec.calls if phase == "table"]
    assert len(table_calls) >= 3
    mids = np.concatenate(table_calls[2:])
    assert np.unique(mids).size == mids.size
    assert not np.isin(mids, table_calls[0]).any()
    assert tab.freqs_evaluated == rec.total()

    built = len(rec.calls)
    tab.e_ad(1.0)
    assert len(rec.calls) == built
    tab.s_ad(1.0)
    slopes = rec.calls[built:]
    assert sum(q.size for _, q in slopes) == 2 * nodes
    assert tab.freqs_evaluated == rec.total()
    tab.s_ad(2.0)
    tab.gprime_of_q(np.array([0.5, 1.0]))
    assert len(rec.calls) == built + len(slopes)
    assert tab.freqs_evaluated == rec.total()

    fresh, _ = roundtrip.logdet_batch(0.3, tab._q, tab.l_max_used,
                                      m_rel_tol=0.05 * tab.tol)
    assert np.max(np.abs(tab._g - fresh) / np.abs(fresh)) < 1e-12


def test_thermo_curve_builds_slopes_for_the_central_table_only(monkeypatch):
    """The tables at r (1 +- delta_r) are read only through e_ad."""
    made = []

    class Recording(mats.DeterminantTable):
        def __post_init__(self):
            super().__post_init__()
            made.append((self, self.freqs_evaluated))

    monkeypatch.setattr(thermo, "DeterminantTable", Recording)
    thermo.build_thermo_curve(0.3, np.geomspace(0.5, 5.0, 5), with_force=True)
    assert len(made) == 3
    grown = [tab.freqs_evaluated - n0 for tab, n0 in made]
    assert grown == [2 * made[0][0]._q.size, 0, 0]


@pytest.fixture(scope="module")
def table():
    return mats.DeterminantTable(0.02, tol=1e-9)


class TestDeterminantTable:

    def test_matches_direct_sum(self, table):
        for z in (0.1, 1.0, 5.0):
            direct = mats.free_energy_ad(0.02, z, tol=1e-9)
            assert table.e_ad(z) == pytest.approx(direct, rel=3e-8)

    def test_entropy_matches_asymptotics(self, table):
        # physical r^2-scale multipole corrections shift the entropy by a
        # few times 1e-3 of the classical scale at r = 0.02
        for z in (0.5, 1.0, 2.0, 5.0):
            assert table.s_ad(z) == pytest.approx(float(asy.s_ad(z)),
                                                  rel=2e-2, abs=6e-3)

    def test_zero_t_integral(self, table):
        quad = mats.zero_T_energy_ad(0.02, tol=1e-7)
        assert table.e_ad_zero_T() == pytest.approx(quad, rel=1e-5)

    def test_classical_anchor(self, table):
        s_cl = -table.g0 / (2.0 * 0.02**6)
        assert table.s_ad(30.0) == pytest.approx(s_cl, rel=1e-9)
