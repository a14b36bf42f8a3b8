"""The benchmark's layer trace (bench/layers.py) keeps finding the package
functions it wraps: a renamed or re-signatured hook fails here, not in a
traced benchmark run."""

import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_layer_trace_reports_every_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers

    from casimir_spheres import matsubara, roundtrip
    from casimir_spheres.geometry import Geometry, ThermalPoint

    trace = layers.LayerTrace()
    trace.install()
    try:
        roundtrip.logdet_batch(0.2, np.array([0.5, 1.0]), 12)
        geo = Geometry.from_ratio(0.1)
        matsubara.free_energy(geo, ThermalPoint.from_z(1.0, geo))
    finally:
        trace.uninstall()
    metrics = trace.metrics(wall_s=1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [d["name"] for d in spec["per_layer"]
               if d["name"] not in metrics]
    assert not missing
    # production calls the wrapped functions through their modules
    assert metrics["specfun.ladder.calls"] > 0
    assert metrics["scattering.tmatrix.calls"] > 0
    assert metrics["translation.coupling.calls"] > 0
    assert metrics["roundtrip.assembly.calls"] > 0
    assert metrics["roundtrip.logdet_batch.calls"] >= 2
    assert metrics["matsubara.free_energy.calls"] == 1
    # every l_max ladder goes through the wrapped matsubara._converged_l_max
    assert metrics["matsubara.ladder.calls"] > 0
    assert metrics["matsubara.l_max_chosen"] > 0
    # uninstalled: the package functions are its own again
    assert roundtrip.logdet_batch.__module__ == "casimir_spheres.roundtrip"
