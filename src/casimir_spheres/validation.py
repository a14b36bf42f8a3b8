"""Acceptance-style validation checks, shared by the CLI and the test suite.

Each check returns a :class:`CheckResult`; :func:`run_all` executes a
selection and prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, pfa, roundtrip, specfun, thermo
from .constants import HBAR_C, K_B, ZETA_3
from .geometry import Geometry, ThermalPoint
from .matsubara import DeterminantTable, free_energy_ad, zero_T_energy_ad


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _testdata_dir() -> Path | None:
    """Golden oracle files live in the repository's tests/testdata."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        cand = parent / "tests" / "testdata"
        if cand.is_dir():
            return cand
    return None


def check_zero_t_coefficient() -> CheckResult:
    """Zero-T large-separation coefficient at r = 0.01 (target -143/(16 pi))."""
    t0 = time.time()
    e_ad0 = zero_T_energy_ad(0.01, tol=1e-7)
    ratio = e_ad0 * 8.0 / 143.0        # = E * 16 pi d^7 / (143 hbar c R^6)
    ok = -1.01 <= ratio <= -0.99
    return CheckResult("zero_T_coefficient", ok,
                       f"scaled ratio {ratio:.6f} in [-1.01, -0.99]",
                       time.time() - t0)


def check_classical_coefficient() -> CheckResult:
    """Classical limit at r = 0.01, z = 50 against -15 k_B T R^6 / (4 d^6)."""
    t0 = time.time()
    val = free_energy_ad(0.01, 50.0, tol=1e-9)
    ratio = val / (-15.0 * 50.0 / 4.0)
    ok = 0.99 <= ratio <= 1.01
    return CheckResult("classical_coefficient", ok,
                       f"ratio {ratio:.6f} in [0.99, 1.01]", time.time() - t0)


def check_energy_ratio_maximum() -> CheckResult:
    """Local maximum of E/E0 at z = 1.0388 with height 1 + 1e-4."""
    t0 = time.time()
    z_star, height = asymptotics.find_e_ratio_max()
    ok = (abs(z_star - 1.0388) <= 1e-3
          and 1e-4 / 1.2 <= height - 1.0 <= 1.2e-4)
    return CheckResult("energy_ratio_maximum", ok,
                       f"z* = {z_star:.5f}, height-1 = {height - 1:.3e}",
                       time.time() - t0)


def check_entropy_zeros() -> CheckResult:
    """Exactly two positive entropy zeros with S < 0 between them."""
    t0 = time.time()
    z1, z2 = asymptotics.find_entropy_zeros()
    inside = asymptotics.s_ad(0.5 * (z1 + z2))
    outside = (asymptotics.s_ad(0.5 * z1), asymptotics.s_ad(2.0 * z2))
    ok = (z1 < z2 and inside < 0 and outside[0] > 0 and outside[1] > 0)
    return CheckResult("entropy_zeros", ok,
                       f"zeros at {z1:.4f}, {z2:.4f}; S mid = {inside:.3e}",
                       time.time() - t0)


def check_negative_entropy_disappearance() -> CheckResult:
    """Negative interval present at r = 0.40, absent at r = 0.41 (slow)."""
    t0 = time.time()
    grid = np.geomspace(0.05, 20.0, 200)
    rep40 = thermo.scan_entropy_features(0.40, grid, tol=1e-9)
    rep41 = thermo.scan_entropy_features(0.41, grid, tol=1e-9)
    ok = rep40.has_negative_interval and not rep41.has_negative_interval
    return CheckResult(
        "negative_entropy_disappearance", ok,
        f"r=0.40: {rep40.has_negative_interval} (min {rep40.min_S_over_Scl:.2e}),"
        f" r=0.41: {rep41.has_negative_interval} (min {rep41.min_S_over_Scl:.2e})",
        time.time() - t0)


def check_pfa_limits() -> CheckResult:
    """PFA quantum and classical limits (relative 1e-6 and 1e-10)."""
    t0 = time.time()
    x_small, x_big = 1e-4, 50.0
    quantum = x_small * pfa.pfa_energy_x(x_small) / (math.pi**4 / 180.0)
    classical = pfa.pfa_energy_x(x_big) / (0.5 * ZETA_3)
    ok = abs(quantum - 1.0) <= 1e-6 and abs(classical - 1.0) <= 1e-10
    return CheckResult("pfa_limits", ok,
                       f"quantum rel {abs(quantum - 1):.2e}, "
                       f"classical rel {abs(classical - 1):.2e}",
                       time.time() - t0)


def check_pfa_entropy_positivity() -> CheckResult:
    """S_PFA >= 0 on a 1000-point grid; low-x slope pi^2/18 to rel 1e-3."""
    t0 = time.time()
    xs = np.geomspace(1e-3, 100.0, 1000)
    vals = np.array([pfa.pfa_entropy_x(x) for x in xs])
    slope = pfa.pfa_entropy_x(1e-4) / 1e-4
    slope_ok = abs(slope / (math.pi**2 / 18.0) - 1.0) <= 1e-3
    ok = bool(np.all(vals >= 0.0)) and slope_ok
    return CheckResult("pfa_entropy_positivity", ok,
                       f"min S_x = {vals.min():.3e}, slope rel dev "
                       f"{abs(slope / (math.pi**2 / 18.0) - 1):.2e}",
                       time.time() - t0)


def check_power_law_exponents(include_numeric: bool = True) -> CheckResult:
    """Low-T exponents: 5.0 +- 0.1 asymptotic, 1.0 +- 0.05 PFA,
    3.0 +- 0.5 numeric at r = 0.45 (the numeric part is slow)."""
    t0 = time.time()
    rep_a = thermo.scan_entropy_features(
        0.01, np.geomspace(1e-3, 20.0, 300), branch="asymptotic")
    rep_p = thermo.scan_entropy_features(
        0.3, np.geomspace(1e-3, 20.0, 300), branch="pfa")
    parts = [f"asymptotic {rep_a.low_T_exponent:.3f}",
             f"pfa {rep_p.low_T_exponent:.3f}"]
    ok = (abs(rep_a.low_T_exponent - 5.0) <= 0.1
          and abs(rep_p.low_T_exponent - 1.0) <= 0.05)
    if include_numeric:
        rep_n = thermo.scan_entropy_features(
            0.45, np.geomspace(0.05, 20.0, 160), branch="numeric", tol=1e-7)
        parts.append(f"numeric(0.45) {rep_n.low_T_exponent:.3f}")
        ok = ok and abs(rep_n.low_T_exponent - 3.0) <= 0.5
    return CheckResult("power_law_exponents", ok, ", ".join(parts),
                       time.time() - t0)


def check_cross_derivative() -> CheckResult:
    """Mixed-partial identity numerically at (r, z) = (0.1, 1) and in closed form."""
    t0 = time.time()
    geo = Geometry.from_ratio(0.1)
    lhs, rhs = thermo.cross_derivative_check(
        geo, ThermalPoint.from_z(1.0, geo), tol=1e-9)
    num_rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    lhs_a, rhs_a = thermo.cross_derivative_check_asymptotic(1.0)
    clo_rel = abs(lhs_a - rhs_a) / max(abs(lhs_a), abs(rhs_a))
    ok = num_rel < 1e-4 and clo_rel < 1e-10
    return CheckResult("cross_derivative_identity", ok,
                       f"numeric rel {num_rel:.2e}, closed-form rel {clo_rel:.2e}",
                       time.time() - t0)


def check_attraction_everywhere() -> CheckResult:
    """F < 0 on all branches; a window with dF/dT < 0 exists asymptotically."""
    t0 = time.time()
    zs = np.linspace(1e-3, 100.0, 2000)
    f_asy = asymptotics.f_ad(zs)
    ok = bool(np.all(f_asy < 0))
    xs = np.geomspace(1e-3, 50.0, 200)
    ok = ok and all(pfa.pfa_force_x(x) > 0 for x in xs)  # prefactor < 0
    # numeric branch over (r, z) grid through light determinant tables
    # (sign test only): F_ad = 7 E + z S + r dE/dr with a one-sided step
    from .matsubara import DeterminantTable
    for r in (0.1, 0.45):
        delta = 2e-3
        tabs = [DeterminantTable(rr, tol=1e-5, n_small=24, n_large=110,
                                 max_refine=1)
                for rr in (r, r * (1.0 + delta))]
        for z in (0.1, 1.0, 10.0):
            e0, e1 = tabs[0].e_ad(z), tabs[1].e_ad(z)
            f_ad = 7.0 * e0 + z * tabs[0].s_ad(z) + (e1 - e0) / delta
            ok = ok and f_ad < 0.0
    fp = asymptotics.f_ad_prime(np.linspace(0.05, 20.0, 4000))
    nonmono = bool(np.min(fp) < 0)
    ok = ok and nonmono
    return CheckResult("attraction_everywhere", ok,
                       f"min dF_ad/dz = {float(np.min(fp)):.3f} "
                       f"(negative window {'present' if nonmono else 'absent'})",
                       time.time() - t0)


def check_oracle_suites() -> CheckResult:
    """Golden-file oracle comparisons: Bessel kernel, dipole trace, PFA sums."""
    t0 = time.time()
    data_dir = _testdata_dir()
    if data_dir is None:
        return CheckResult("oracle_suites", False,
                           "tests/testdata not found (run from the repository)",
                           time.time() - t0)
    worst_b = 0.0
    cases = 0
    bes = json.loads((data_dir / "bessel_oracle.json").read_text())
    for entry in bes["cases"]:
        l, x = entry["l"], np.array([entry["x"]])
        i_scaled = math.exp(specfun.log_scaled_iv_ladder_vec(l, x)[0, l])
        k_scaled = math.exp(specfun.log_scaled_kv_ladder_vec(l, x)[0, l])
        worst_b = max(worst_b,
                      abs(i_scaled / float(entry["i_scaled"]) - 1.0),
                      abs(k_scaled / float(entry["k_scaled"]) - 1.0))
        cases += 1
    sum_ = json.loads((data_dir / "dipole_summand_oracle.json").read_text())
    worst_d = 0.0
    for entry in sum_["cases"]:
        geo = Geometry.from_ratio(entry["r"])
        got = roundtrip.dipole_trace(geo, entry["q"])
        worst_d = max(worst_d, abs(got / float(entry["value"]) - 1.0))
    pfa_g = json.loads((data_dir / "pfa_oracle.json").read_text())
    worst_p = 0.0
    for entry in pfa_g["cases"]:
        got = pfa.pfa_energy_x(entry["x"])
        worst_p = max(worst_p, abs(got / float(entry["value"]) - 1.0))
    ok = worst_b <= 1e-12 and worst_d <= 1e-10 and worst_p <= 1e-12
    return CheckResult("oracle_suites", ok,
                       f"bessel {cases} cases worst {worst_b:.2e}; dipole worst "
                       f"{worst_d:.2e}; pfa worst {worst_p:.2e}",
                       time.time() - t0)


FAST_CHECKS = [
    check_zero_t_coefficient,
    check_classical_coefficient,
    check_energy_ratio_maximum,
    check_entropy_zeros,
    check_pfa_limits,
    check_pfa_entropy_positivity,
    lambda: check_power_law_exponents(include_numeric=False),
    check_cross_derivative,
    check_attraction_everywhere,
    check_oracle_suites,
]

SLOW_CHECKS = [
    check_negative_entropy_disappearance,
    lambda: check_power_law_exponents(include_numeric=True),
]


def run_all(slow: bool = False, stream=None) -> bool:
    """Run the validation suite, print one PASS/FAIL line per criterion."""
    import sys
    stream = stream or sys.stdout
    checks = list(FAST_CHECKS) + (list(SLOW_CHECKS) if slow else [])
    all_ok = True
    for fn in checks:
        try:
            res = fn()
        except Exception as exc:  # a crash counts as failure, keep going
            res = CheckResult(getattr(fn, "__name__", "check"), False,
                              f"raised {type(exc).__name__}: {exc}", 0.0)
        all_ok &= res.passed
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} [{res.seconds:.1f}s]",
              file=stream)
    return all_ok
