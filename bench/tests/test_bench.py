"""Tests of the benchmark's own parts: span arithmetic, inputs, checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_call_tree():
    clock = FakeClock()
    tr = Tracer(clock)

    def tick(dt):
        clock.now += dt

    # cli [0, 10]: 1 s own, table [1, 9], 1 s own after
    #   table: 1 s own, ladder [2, 5] with 2 x assembly of 1 s, 1 s own,
    #          assembly [5, 8], 1 s own
    tr.enter("cli"); tick(1)
    tr.enter("table"); tick(1)
    tr.enter("ladder")
    for _ in range(2):
        tr.enter("assembly"); tick(1); tr.exit()
    tick(1); tr.exit()
    tr.enter("assembly"); tick(3); tr.exit()
    tick(1); tr.exit()
    tick(1); tr.exit()
    tick(5)     # outside any span

    assert tr.calls("assembly") == 3
    assert tr.self_s("assembly") == pytest.approx(5.0)
    assert tr.self_s("ladder") == pytest.approx(1.0)
    assert tr.total_s("ladder") == pytest.approx(3.0)
    assert tr.self_s("table") == pytest.approx(2.0)
    assert tr.total_s("table") == pytest.approx(10.0 - 2.0)
    assert tr.self_s("cli") == pytest.approx(2.0)
    assert tr.covered == pytest.approx(10.0)
    # self times partition the covered time
    assert sum(s[2] for s in tr.stats.values()) == pytest.approx(tr.covered)


def test_nested_span_of_one_name_counts_total_once():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("a"); clock.now += 1
    tr.enter("a"); clock.now += 2; tr.exit()
    tr.exit()
    assert tr.calls("a") == 2
    assert tr.total_s("a") == pytest.approx(3.0)
    assert tr.self_s("a") == pytest.approx(3.0)


def test_wrap_closes_span_on_exception_and_patches_undo():
    tr = Tracer(FakeClock())

    class Mod:
        @staticmethod
        def f(x):
            raise ValueError(x)

    original = Mod.f
    patches = Patches()
    patches.set(Mod, "f", tr.wrap("f", Mod.f))
    with pytest.raises(ValueError):
        Mod.f(1)
    assert tr.stack == [] and tr.calls("f") == 1
    patches.undo()
    assert Mod.f is original


def test_points_generator_is_seed_deterministic():
    a = workloads.points(7)
    assert a == workloads.points(7)
    assert a != workloads.points(8)
    assert len(a) == workloads.POINTS >= 40
    r = sorted(p[0] for p in a)
    z = sorted(p[1] for p in a)
    assert workloads.R_RANGE[0] <= r[0] and r[-1] <= workloads.R_RANGE[1]
    assert workloads.Z_RANGE[0] <= z[0] and z[-1] <= workloads.Z_RANGE[1]
    # one point per r stratum and one per log-z stratum
    n = workloads.POINTS
    lo, hi = workloads.R_RANGE
    assert sorted(int((x - lo) / (hi - lo) * n) for x in r) == list(range(n))


def test_points_strata_are_seed_independent():
    n = workloads.POINTS

    def cells(seed):
        lo, hi = workloads.R_RANGE
        return sorted(int((r - lo) / (hi - lo) * n) for r, _ in
                      workloads.points(seed))
    assert cells(1) == cells(2) == cells(3)


def _sweep_text(rows, interval=(1.48, 3.17)):
    head = "# casimir-spheres v0.1.0\n"
    if interval is None:
        head += ("# feature report: has_negative_interval=False interval=None"
                 " min_S_over_Scl=0.1 low_T_exponent=3\n")
    else:
        head += (f"# feature report: has_negative_interval=True interval="
                 f"(np.float64({interval[0]}), np.float64({interval[1]}))"
                 " min_S_over_Scl=-0.02 low_T_exponent=3.3\n")
    body = "z,E_ad,S_ad,F_ad,branch,l_max,err_est\n" + "".join(
        f"{z!r},{e!r},{s!r},{f!r},numeric,24,1e-09\n" for z, e, s, f in rows)
    return head + body


def _sweep_rows():
    z = [float(zi) for zi in workloads.z_grid()]
    return [(zi, -60.0 - zi, 0.5 * zi - 1.0, -600.0 - zi) for zi in z]


def test_sweep_checker_accepts_reference_and_flags_perturbation():
    wl = workloads.MidSweep()
    rows = _sweep_rows()
    out = (0, _sweep_text(rows))
    ref = wl.reference([wl.argv], [out])
    assert ref["interval"] == [1.48, 3.17]
    assert wl.check(0, wl.argv, out, ref) == []

    bad = copy.deepcopy(rows)
    z, e, s, f = bad[17]
    bad[17] = (z, e * (1 + 1e-6), s, f)
    errors = wl.check(0, wl.argv, (0, _sweep_text(bad)), ref)
    assert errors == ["E_ad differs from the reference"]

    positive = copy.deepcopy(rows)
    positive[3] = (positive[3][0], 1.0, positive[3][2], positive[3][3])
    assert "E_ad >= 0 on some row" in wl.check(
        0, wl.argv, (0, _sweep_text(positive)), None)
    assert "no negative-entropy interval at r=0.35" in wl.check(
        0, wl.argv, (0, _sweep_text(rows, interval=None)), None)
    assert wl.check(0, wl.argv, (3, ""), None) == ["exit code 3"]


class _Result:
    def __init__(self, energy):
        self.energy = energy


def test_points_checker_flags_perturbed_energy():
    from casimir_spheres.geometry import Geometry, energy_scale_ad
    wl = workloads.Points()
    inp = (0.2, 1.0)
    scale = energy_scale_ad(Geometry(R=0.2 * wl.d, d=wl.d))
    good = _Result(-17.9 * scale)
    ref = wl.reference([inp], [good])
    assert wl.check(0, inp, good, ref) == []
    off = _Result(-17.9 * (1 + 1e-7) * scale)
    assert wl.check(0, inp, off, ref) == [
        f"E_ad at (r, z)={inp} differs from the reference"]
    assert wl.check(0, inp, _Result(17.9 * scale), None)


def test_stored_references_match_generator():
    with open(workloads.REFERENCE_PATH) as fh:
        ref = json.load(fh)
    assert set(ref) == {"near-curve", "mid-sweep", "points"}
    assert set(ref["points"]) == {str(s) for s in make_reference.SEEDS}
    for seed in make_reference.SEEDS:
        assert workloads.load_reference("points", seed) is not None
    assert workloads.load_reference("points", 10**6) is None


def test_benchmark_spec_lists_the_layer_metrics():
    from casimir_spheres import roundtrip
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    original = roundtrip.logdet_batch
    trace = layers.LayerTrace()
    trace.install()
    try:
        assert roundtrip.logdet_batch is not original
        names = list(trace.metrics(1.0))
    finally:
        trace.uninstall()
    assert roundtrip.logdet_batch is original
    assert names == [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_result_line_gives_every_metric_of_the_spec_with_its_unit():
    spec = run.load_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = [m["name"] for m in spec[key]]
        record = {"trace": trace, "result": {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: 1.5 for name in reversed(names)}}}
        line = run.result_line(record, spec)
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == names
        for m in spec[key]:
            assert line["metrics"][m["name"]] == {"value": 1.5,
                                                  "unit": m["unit"]}
        del record["result"]["metrics"][names[0]]
        with pytest.raises(KeyError):
            run.result_line(record, spec)


def test_compare_status():
    base = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert compare.status(base, [v * 1.2 for v in base], 0.1, "lower")[1] \
        == "regressed"
    assert compare.status(base, [v * 1.02 for v in base], 0.1, "lower")[1] \
        == "ok"
    assert compare.status(base, [5.0, 15.0, 10.0, 20.0], 0.1, "lower")[1] \
        == "unresolved"
    wide = [8.0, 9.0, 10.0, 11.0, 12.0]   # quartile spread 30 %
    # every new run better, but the median gain (23 %) is inside that spread
    assert compare.status(wide, [7.9, 7.8, 7.7, 7.6, 7.5], 0.1, "lower")[1] \
        == "unresolved"
    assert compare.status(wide, [6.5, 6.6, 6.4, 6.3, 6.7], 0.1, "lower")[1] \
        == "improved"
