import math

import numpy as np
import pytest

from casimir_spheres import specfun


def scaled_ladders(l_max, x):
    """(I_{l+1/2} e^{-x}, K_{l+1/2} e^{+x}) for l = 0..l_max from the
    production ladders, at one argument."""
    xs = np.array([x])
    return (np.exp(specfun.log_scaled_iv_ladder_vec(l_max, xs)[0]),
            np.exp(specfun.log_scaled_kv_ladder_vec(l_max, xs)[0]))


def test_closed_form_examples_l0():
    i, k = scaled_ladders(0, 1.0)
    assert i[0] == pytest.approx(
        math.sqrt(2.0 / math.pi) * math.sinh(1.0) * math.exp(-1.0), rel=1e-14)
    assert k[0] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)


def test_small_argument_leading_order_l1():
    # I_{3/2}(x) e^{-x} / x^{3/2} -> sqrt(2/pi)/3
    for x in (1e-6, 1e-5):
        i, _ = scaled_ladders(1, x)
        assert i[1] / x**1.5 == pytest.approx(
            math.sqrt(2.0 / math.pi) / 3.0, rel=1e-4)


def test_oracle_grid(testdata):
    """2000-case golden comparison at relative 1e-12 for both entries."""
    data = testdata("bessel_oracle.json")
    assert len(data["cases"]) == 2100
    worst = 0.0
    for case in data["cases"]:
        l = case["l"]
        i, k = scaled_ladders(l, case["x"])
        worst = max(worst,
                    abs(i[l] / float(case["i_scaled"]) - 1.0),
                    abs(k[l] / float(case["k_scaled"]) - 1.0))
    assert worst <= 1e-12


def test_wronskian_identity():
    for x in (1e-4, 1e-2, 0.7, 5.0, 42.0):
        i, k = scaled_ladders(20, x)
        resid = np.abs((i[:-1] * k[1:] + i[1:] * k[:-1]) * x - 1.0)
        assert np.max(resid) <= 1e-12


def test_three_term_recurrences():
    for x in (1e-3, 0.3, 2.0, 30.0):
        i, k = scaled_ladders(21, x)
        ls = np.arange(1, 21)
        # I_{nu-1} - I_{nu+1} = (2 nu / x) I_nu with nu = l + 1/2
        res_i = np.abs(i[ls - 1] - i[ls + 1] - (2 * ls + 1) / x * i[ls])
        res_k = np.abs(k[ls + 1] - k[ls - 1] - (2 * ls + 1) / x * k[ls])
        scale_i = np.maximum(np.abs(i[ls - 1]), 1e-300)
        scale_k = np.abs(k[ls + 1])
        assert np.max(res_i / scale_i) <= 1e-11
        assert np.max(res_k / scale_k) <= 1e-11


def test_k_increasing_in_order():
    for x in (1e-3, 1.0, 10.0):
        _, k = scaled_ladders(25, x)
        assert np.all(np.diff(k) > 0)


def test_positive_entries():
    for l in (0, 3, 17):
        for x in (1e-4, 1.0, 50.0):
            i, k = scaled_ladders(l, x)
            assert i[l] > 0 and k[l] > 0
            assert math.isfinite(i[l]) and math.isfinite(k[l])


def test_domain_errors():
    for ladder in (specfun.log_scaled_iv_ladder_vec,
                   specfun.log_scaled_kv_ladder_vec,
                   specfun.log_khat_spherical_ladder_vec):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                ladder(2, np.array([1.0, x]))


def test_ratio_small_argument_law():
    # I_{3/2}/K_{3/2} -> 2 x^3 / (3 pi), i.e. T_MM -> -x^3/3
    x = np.array([1e-3, 1e-2])
    ratio = np.exp(specfun.log_scaled_iv_ladder_vec(1, x)[:, 1]
                   - specfun.log_scaled_kv_ladder_vec(1, x)[:, 1] + 2.0 * x)
    assert ratio == pytest.approx(2.0 * x**3 / (3.0 * math.pi), rel=2e-3)


def test_ratio_monotone_in_x():
    xs = np.geomspace(1e-3, 20.0, 40)
    vals = np.exp(specfun.log_scaled_iv_ladder_vec(4, xs)
                  - specfun.log_scaled_kv_ladder_vec(4, xs) + 2.0 * xs[:, None])
    for l in (0, 1, 4):
        assert np.all(vals[:, l] > 0)
        assert np.all(np.diff(vals[:, l]) > 0)


def test_frozen_value_l5():
    # precomputed with the independent finite closed-form sums (30 digits)
    i, k = scaled_ladders(5, 2.5)
    assert i[5] == pytest.approx(0.001232634316935735648, rel=1e-13)
    assert k[5] == pytest.approx(67.018913403966220793, rel=1e-13)


def test_frozen_ratio_l2():
    x = np.array([4.0])
    assert math.exp(specfun.log_scaled_iv_ladder_vec(2, x)[0, 2]
                    - specfun.log_scaled_kv_ladder_vec(2, x)[0, 2]
                    + 8.0) == pytest.approx(213.9422960176033036, rel=1e-12)


def test_khat_ladder_against_direct():
    # khat_p = (2/pi) x^{p+1} e^x k_p(x) via half-integer K ladder
    for x in (0.05, 1.3, 9.0):
        lk = specfun.log_khat_spherical_ladder_vec(12, np.array([x]))[0]
        _, khalf = scaled_ladders(12, x)
        k_sph_scaled = math.sqrt(math.pi / (2 * x)) * khalf  # k_p e^{+x}
        ps = np.arange(13)
        direct = np.log(2.0 / math.pi * x**(ps + 1) * k_sph_scaled)
        assert np.max(np.abs(lk - direct)) < 1e-12
