import math

import numpy as np
import pytest
from scipy.special import gammaln

from casimir_spheres import scattering
from casimir_spheres.errors import NonConvergenceError


def test_dipole_limit_values():
    # leading order at kappa R = 0.01: -(x^3)/3 and +2 x^3/3 to 1e-3
    x = 0.01
    lt_m, lt_e = scattering.t_scaled_log_vec(1, np.array([x]))
    assert -math.exp(lt_m[0, 0] + 2.0 * x) == pytest.approx(-x**3 / 3.0, rel=1e-3)
    assert math.exp(lt_e[0, 0] + 2.0 * x) == pytest.approx(2.0 * x**3 / 3.0, rel=1e-3)


def test_dipole_limit_ratio_tends_to_one():
    x = np.array([1e-2, 1e-3, 1e-4])
    lt_m, lt_e = scattering.t_scaled_log_vec(1, x)
    dev_mm = np.abs(-np.exp(lt_m[:, 0] + 2.0 * x) / (-x**3 / 3.0) - 1.0)
    dev_ee = np.abs(np.exp(lt_e[:, 0] + 2.0 * x) / (2.0 * x**3 / 3.0) - 1.0)
    assert dev_mm[-1] < 1e-7 and dev_ee[-1] < 1e-7
    assert dev_mm[-1] < dev_mm[0] and dev_ee[-1] < dev_ee[0]


def test_asymptotic_consistency_window():
    x = np.array([0.01, 0.03, 0.09])
    lt_m, lt_e = scattering.t_scaled_log_vec(1, x)
    assert np.all(np.abs(-np.exp(lt_m[:, 0] + 2.0 * x) / (-x**3 / 3.0) - 1.0)
                  < x**2)
    assert np.all(np.abs(np.exp(lt_e[:, 0] + 2.0 * x) / (2.0 * x**3 / 3.0)
                         - 1.0) < x**2)


def test_frozen_values():
    # precomputed independently at 30 digits
    lt_m, _ = scattering.t_scaled_log_vec(3, np.array([2.0]))
    assert -math.exp(lt_m[0, 2] + 4.0) == pytest.approx(
        -0.14546655822633610988, rel=1e-12)
    _, lt_e = scattering.t_scaled_log_vec(2, np.array([1.5]))
    assert math.exp(lt_e[0, 1] + 3.0) == pytest.approx(
        0.35010793340904725566, rel=1e-12)


def test_mm_always_negative_ee_positive():
    """The signs are fixed (M < 0 < E), so the ladders carry magnitudes:
    finite logs whose unscaled elements are nonzero float64 numbers."""
    x = np.array([1e-3, 0.2, 3.0, 25.0, 90.0])
    lt_m, lt_e = scattering.t_scaled_log_vec(12, x)
    for lt in (lt_m, lt_e):
        assert np.all(np.isfinite(lt))
        assert np.all(np.exp(lt + 2.0 * x[:, None]) > 0.0)


def test_block_reuse_per_m():
    """An element does not depend on the l_max of the ladder it is read
    from, so one row serves every m block up to that l_max."""
    lt_m6, lt_e6 = scattering.t_scaled_log_vec(6, np.array([1.7]))
    lt_m3, lt_e3 = scattering.t_scaled_log_vec(3, np.array([1.7]))
    assert lt_m6.shape == (1, 6)
    assert lt_m6[0, 2] == pytest.approx(lt_m3[0, 2], rel=1e-13)
    assert lt_e6[0, 2] == pytest.approx(lt_e3[0, 2], rel=1e-13)


def static_ratio(l, pol, y):
    """T(y) / y^{2l+1}, which tends to the static coefficient c_{l,P}."""
    lt_m, lt_e = scattering.t_scaled_log_vec(l, np.array([y]))
    lt, sign = (lt_m, -1.0) if pol == "M" else (lt_e, 1.0)
    return sign * math.exp(lt[0, l - 1] + 2.0 * y - (2 * l + 1) * math.log(y))


def test_static_coefficients_dipole():
    assert static_ratio(1, "M", 1e-5) == pytest.approx(-1.0 / 3.0, rel=1e-8)
    assert static_ratio(1, "E", 1e-5) == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_static_coefficients_quadrupole():
    # exact limits -1/45 and +1/30, cross-checked in high precision
    assert static_ratio(2, "M", 1e-5) == pytest.approx(-1.0 / 45.0, rel=1e-7)
    assert static_ratio(2, "E", 1e-5) == pytest.approx(1.0 / 30.0, rel=1e-7)


def test_static_coefficient_convergence_order():
    # T(x)/x^{2l+1} approaches the exact coefficient at observed order >= 2
    errs = [abs(static_ratio(2, "M", x) + 1.0 / 45.0)
            for x in (2e-2, 1e-2, 5e-3)]
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_small_argument_law():
    """T -> c_l y^{2l+1} as y = kappa R -> 0, with the closed forms
    c_{l,M} = -pi / (2^{2l+1} Gamma(l+3/2) Gamma(l+1/2)) and
    c_{l,E} = -(l+1)/l c_{l,M}, within relative y^2 at every l <= 40."""
    ls = np.arange(1, 41)
    log_c_m = (math.log(math.pi) - (2 * ls + 1) * math.log(2.0)
               - gammaln(ls + 1.5) - gammaln(ls + 0.5))
    log_c_e = log_c_m + np.log((ls + 1.0) / ls)
    # the dipole and quadrupole values -1/3, 2/3, -1/45, 1/30
    assert (np.exp([log_c_m[0], log_c_e[0], log_c_m[1], log_c_e[1]])
            == pytest.approx([1 / 3, 2 / 3, 1 / 45, 1 / 30], rel=1e-14))
    y = np.array([1e-2, 1e-3])
    lt_m, lt_e = scattering.t_scaled_log_vec(40, y)
    power = (2 * ls + 1) * np.log(y)[:, None] - 2.0 * y[:, None]
    for lt, log_c in ((lt_m, log_c_m), (lt_e, log_c_e)):
        assert np.all(np.abs(lt - (log_c + power)) <= y[:, None]**2)


def test_domain_errors():
    for y in (0.0, -2.0):
        with pytest.raises(ValueError):
            scattering.t_scaled_log_vec(1, np.array([1.0, y]))


def test_dipole_tmatrix_exact():
    assert scattering.dipole_tmatrix(1.0, 1.0) == (-1.0 / 3.0, 2.0 / 3.0)
    assert scattering.dipole_tmatrix(2.0, 0.5) == (-1.0 / 3.0, 2.0 / 3.0)
    t_mm, t_ee = scattering.dipole_tmatrix(1.0, 0.1)
    assert t_mm == pytest.approx(-1e-3 / 3.0, rel=1e-14)
    assert t_ee == pytest.approx(2e-3 / 3.0, rel=1e-14)


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
