import math

import numpy as np
import pytest

from casimir_spheres import scattering
from casimir_spheres.errors import NonConvergenceError
from casimir_spheres.scattering import MultipoleIndex, Polarization


def test_dipole_limit_values():
    # leading order at kappa R = 0.01: -(x^3)/3 and +2 x^3/3 to 1e-3
    x = 0.01
    assert scattering.tmatrix_mm(1, x) == pytest.approx(-x**3 / 3.0, rel=1e-3)
    assert scattering.tmatrix_ee(1, x) == pytest.approx(2.0 * x**3 / 3.0, rel=1e-3)


def test_dipole_limit_ratio_tends_to_one():
    ratios_mm = []
    ratios_ee = []
    for x in (1e-2, 1e-3, 1e-4):
        ratios_mm.append(scattering.tmatrix_mm(1, x) / (-x**3 / 3.0))
        ratios_ee.append(scattering.tmatrix_ee(1, x) / (2.0 * x**3 / 3.0))
    assert abs(ratios_mm[-1] - 1.0) < 1e-7
    assert abs(ratios_ee[-1] - 1.0) < 1e-7
    assert abs(ratios_mm[-1] - 1.0) < abs(ratios_mm[0] - 1.0)
    assert abs(ratios_ee[-1] - 1.0) < abs(ratios_ee[0] - 1.0)


def test_asymptotic_consistency_window():
    for x in (0.01, 0.03, 0.09):
        assert abs(scattering.tmatrix_mm(1, x) / (-x**3 / 3.0) - 1.0) < x**2
        assert abs(scattering.tmatrix_ee(1, x) / (2.0 * x**3 / 3.0) - 1.0) < x**2


def test_frozen_values():
    # precomputed independently at 30 digits
    assert scattering.tmatrix_mm(3, 2.0) == pytest.approx(
        -0.14546655822633610988, rel=1e-12)
    assert scattering.tmatrix_ee(2, 1.5) == pytest.approx(
        0.35010793340904725566, rel=1e-12)


def test_mm_always_negative_ee_positive():
    for l in (1, 2, 5, 12):
        for x in (1e-3, 0.2, 3.0, 25.0, 90.0):
            assert scattering.tmatrix_mm(l, x) < 0
            assert scattering.tmatrix_ee(l, x) > 0


def test_block_reuse_per_m():
    blk = scattering.tmatrix_block(1.7, 6)
    assert blk.diag_mm.shape == (6,)
    assert np.all(blk.diag_mm < 0)
    assert np.all(blk.diag_ee > 0)
    assert blk.diag_mm[2] == pytest.approx(scattering.tmatrix_mm(3, 1.7), rel=1e-13)


def test_static_coefficients_dipole():
    assert scattering.tmatrix_static_coeff(1, "M") == pytest.approx(-1.0 / 3.0, rel=1e-8)
    assert scattering.tmatrix_static_coeff(1, "E") == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_static_coefficients_quadrupole():
    # exact limits -1/45 and +1/30, cross-checked in high precision
    assert scattering.tmatrix_static_coeff(2, "M") == pytest.approx(-1.0 / 45.0, rel=1e-7)
    assert scattering.tmatrix_static_coeff(2, "E") == pytest.approx(1.0 / 30.0, rel=1e-7)


def test_static_coefficient_convergence_order():
    # T(x)/x^{2l+1} approaches the coefficient at observed order >= 2
    c = scattering.tmatrix_static_coeff(2, "M")
    errs = []
    for x in (2e-2, 1e-2, 5e-3):
        errs.append(abs(scattering.tmatrix_mm(2, x) / x**5 - c))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_domain_errors():
    with pytest.raises(ValueError):
        scattering.tmatrix_mm(1, 0.0)
    with pytest.raises(ValueError):
        scattering.tmatrix_ee(1, -2.0)
    with pytest.raises(ValueError):
        scattering.tmatrix_mm(0, 1.0)


def test_dipole_tmatrix_exact():
    assert scattering.dipole_tmatrix(1.0, 1.0) == (-1.0 / 3.0, 2.0 / 3.0)
    assert scattering.dipole_tmatrix(2.0, 0.5) == (-1.0 / 3.0, 2.0 / 3.0)
    t_mm, t_ee = scattering.dipole_tmatrix(1.0, 0.1)
    assert t_mm == pytest.approx(-1e-3 / 3.0, rel=1e-14)
    assert t_ee == pytest.approx(2e-3 / 3.0, rel=1e-14)


def test_multipole_index_invariants():
    idx = MultipoleIndex(l=2, m=-2, pol=Polarization.E)
    assert idx.pol is Polarization.E
    with pytest.raises(ValueError):
        MultipoleIndex(l=0, m=0, pol=Polarization.M)
    with pytest.raises(ValueError):
        MultipoleIndex(l=1, m=2, pol=Polarization.M)


def log_t_ee_mpmath(l, y):
    """log|T_E e^{-2y}| at 40 digits, from the defining Bessel ratio."""
    import mpmath
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        nu = l + mpmath.mpf(1) / 2
        num = l * mpmath.besseli(nu, y) - y * mpmath.besseli(nu - 1, y)
        den = l * mpmath.besselk(nu, y) + y * mpmath.besselk(nu - 1, y)
        return float(mpmath.log(mpmath.pi / 2 * abs(num) / den) - 2 * y)


@pytest.mark.parametrize("l_max, y", [(48, 95.0), (20, 24.0), (60, 84.0),
                                      (3, 600.0), (3, 700.0), (3, 715.0),
                                      (3, 750.0), (3, 800.0)])
def test_log_t_ee_matches_mpmath(l_max, y):
    """The E element on both sides of the seam y = 2l + 4 between the
    log-difference and the numerator series (l = 10, 11 at y = 24 and
    l = 40, 41 at y = 84), at y = 95, the r = 0.45 table's q_max r, and
    past y = 710, where the series terms would overflow float64."""
    _, log_t_ee = scattering.t_scaled_log_vec(l_max, np.array([y]))
    seam = int(y - 4.0) // 2
    ls = {1, 2, 3, l_max // 2, l_max - 1, l_max, seam, seam + 1}
    for l in sorted(l for l in ls if l <= l_max):
        assert log_t_ee[0, l - 1] == pytest.approx(log_t_ee_mpmath(l, y),
                                                   rel=0, abs=1e-12), l


def test_ee_series_raises_instead_of_truncating(monkeypatch):
    """At y = 95 the series needs about 95 terms; capped below that it
    raises instead of returning a truncated sum."""
    monkeypatch.setattr(scattering, "_EE_SERIES_MAX_TERMS", 50)
    with pytest.raises(NonConvergenceError, match="not converged after 50"):
        scattering.t_scaled_log_vec(48, np.array([0.5, 95.0]))
    scattering.t_scaled_log_vec(48, np.array([0.5, 20.0]))
