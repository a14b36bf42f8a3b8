"""Benchmark workloads: inputs from a seed, one operation, output checks.

Every workload is a closed loop: one client in one process sends the next
request only after the previous one returned.  All use tol = 1e-9.

* ``near-curve``: ``figure --id 3-left --r 0.41`` through ``cli.main``.  The
  disappearance regime of the negative-entropy window: one table at
  l_max 48 whose ladder probes at l_max 96 and 115 bypass the coupling
  cache, and many frequencies take the log-domain assembly fallback.
* ``mid-sweep``: ``sweep --r 0.35 --z 0.05:20:log200 --branch numeric``
  through ``cli.main``.  Four tables at l_max 24, warm coupling cache, no
  fallback; the negative-entropy window is present.
* ``points``: independent ``free_energy(Geometry, ThermalPoint)`` calls as
  in the README quick start, r in [0.1, 0.35], z log-uniform in [0.1, 5].

The CLI workloads have fixed inputs; their seed changes nothing.  The cost
of a ``points`` call is a step function of the l_max its ladder settles on
(0.1 s at l_max 16, 2 s at 32, 8 s at 48), and the regime boundaries cut
through the (r, z) plane at places no input property predicts.  Points
drawn uniformly within r and log-z strata made the wall time of one seed
differ from another's by up to 40 %, and moving lattice points by a quarter
of a cell still by 30 %, as single points crossed from l_max 48 to 24.
The points therefore sit on a fixed 55-point rank-1 (Fibonacci) lattice
over the (r, log z) rectangle, one per r stratum and one per log-z
stratum, called in order of r.  The seed moves each point by at most 1 %
of its cell, so every seed hits the same l_max regimes.  A seeded call
order was tried and dropped: it moved the per-call p75 by 20 % between
seeds, as different calls paid for the coupling-tensor builds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

TOL = 1e-9
# relative tolerance of table-backed results against direct evaluation at
# tol 1e-9, as in the test suite
REF_RTOL = 3e-8
# F_ad = 7 E + z S + r dE/dr takes dE/dr from tables at r (1 +- 1e-3), so it
# carries the table error divided by the step: 1e-9 / 1e-3
FORCE_RTOL = 1e-6
# the negative-entropy interval is bisected to z-resolution 1e-3
INTERVAL_ATOL = 2e-3

POINTS = 55          # Fibonacci lattice size: 55 points, generator 34
POINTS_GENERATOR = 34
POINTS_JITTER = 0.02  # width of a point's seeded move, in cells
R_RANGE = (0.1, 0.35)
Z_RANGE = (0.1, 5.0)
Z_GRID = (0.05, 20.0, 200)   # the figure-3 and sweep grid


def points(seed: int) -> list[tuple[float, float]]:
    """Seeded (r, z) points, one per r stratum and one per log-z stratum."""
    rng = random.Random(seed)
    lz0, lz1 = math.log(Z_RANGE[0]), math.log(Z_RANGE[1])
    n = POINTS
    out = []
    for i in range(n):
        u = (i + 0.5 + POINTS_JITTER * (rng.random() - 0.5)) / n
        v = ((i * POINTS_GENERATOR) % n + 0.5
             + POINTS_JITTER * (rng.random() - 0.5)) / n
        r = R_RANGE[0] + u * (R_RANGE[1] - R_RANGE[0])
        out.append((r, math.exp(lz0 + v * (lz1 - lz0))))
    return out


def z_grid():
    import numpy as np
    return np.geomspace(*Z_GRID)


def _run_cli(argv: list[str]):
    """``cli.main`` on ``argv``; returns (exit code, stdout text)."""
    from casimir_spheres import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _parse_csv(text: str):
    """(notes, rows) of the CLI's CSV output; rows map column -> str."""
    lines = text.splitlines()
    notes = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return notes, []
    head = body[0].split(",")
    return notes, [dict(zip(head, ln.split(","))) for ln in body[1:]]


def _column(rows, key):
    return [float(row[key]) for row in rows]


def _close(got, want, rtol, scale=None) -> bool:
    """|got - want| <= rtol * (scale or |want|), elementwise."""
    if len(got) != len(want):
        return False
    return all(abs(g - w) <= rtol * (abs(w) if scale is None else scale)
               for g, w in zip(got, want))


def _check_grid(rows) -> list[str]:
    import numpy as np
    if len(rows) != Z_GRID[2]:
        return [f"expected {Z_GRID[2]} rows, got {len(rows)}"]
    if not np.allclose(_column(rows, "z"), z_grid(), rtol=1e-11, atol=0.0):
        return ["z grid differs from the requested grid"]
    return []


class Workload:
    """One kind of operation: inputs from a seed, run, check."""

    name = ""

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, index: int, inp, out, ref) -> list[str]:
        """Failure messages for the output of operation ``index`` (empty
        if correct); ``ref`` is the stored reference of the seed, or None."""
        raise NotImplementedError

    def reference(self, inputs: list, outputs: list):
        """What :meth:`check` compares against, from correct outputs."""
        raise NotImplementedError


class NearCurve(Workload):
    name = "near-curve"
    argv = ("figure", "--id", "3-left", "--r", "0.41")
    r = 0.41

    def inputs(self, seed):
        return [self.argv]

    def run(self, inp):
        # keep the table the CLI builds, for the sign invariant of S
        from casimir_spheres import matsubara
        tables = []
        cls = matsubara.DeterminantTable
        post_init = cls.__post_init__

        def keep(table):
            post_init(table)
            tables.append(table)
        patches = spans.Patches()
        patches.set(cls, "__post_init__", keep)
        try:
            code, text = _run_cli(inp)
        finally:
            patches.undo()
        return code, text, tables

    def check(self, index, inp, out, ref):
        code, text, tables = out
        if code != 0:
            return [f"exit code {code}"]
        _, rows = _parse_csv(text)
        errors = _check_grid(rows)
        if errors:
            return errors
        s = _column(rows, "abs_S_over_Scl")
        if not all(math.isfinite(v) and v >= 0.0 for v in s):
            errors.append("|S|/S_cl not finite and >= 0")
        if len(tables) != 1 or tables[0].r != self.r:
            errors.append(f"expected one table at r={self.r}")
        else:
            from casimir_spheres import thermo
            tab = tables[0]
            if any(tab.e_ad(z) >= 0.0 for z in z_grid()):
                errors.append("E_ad >= 0 on the grid")
            rep = thermo.scan_entropy_features(self.r, z_grid(), table=tab)
            if rep.has_negative_interval:
                errors.append(f"negative-entropy interval at r={self.r}")
        if ref is not None and not _close(s, ref["abs_S_over_Scl"], REF_RTOL,
                                          scale=max(ref["abs_S_over_Scl"])):
            errors.append("|S|/S_cl differs from the reference")
        return errors

    def reference(self, inputs, outputs):
        _, rows = _parse_csv(outputs[0][1])
        return {"abs_S_over_Scl": _column(rows, "abs_S_over_Scl")}


class MidSweep(Workload):
    name = "mid-sweep"
    argv = ("sweep", "--r", "0.35", "--z", "0.05:20:log200",
            "--branch", "numeric")

    def inputs(self, seed):
        return [self.argv]

    def run(self, inp):
        return _run_cli(inp)

    @staticmethod
    def interval(notes) -> tuple | None:
        """The negative-entropy interval of the sweep's feature report."""
        for note in notes:
            if note.startswith("feature report:"):
                if "has_negative_interval=True" not in note:
                    return None
                seg = note.split(" interval=")[1].split(" min_S")[0]
                return tuple(float(x) for x in re.findall(
                    r"[-+]?[\d.]+(?:e[-+]?\d+)?",
                    seg.replace("np.float64", "")))
        raise ValueError("no feature report in the sweep output")

    def check(self, index, inp, out, ref):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        notes, rows = _parse_csv(text)
        errors = _check_grid(rows)
        if errors:
            return errors
        e, s, f = (_column(rows, k) for k in ("E_ad", "S_ad", "F_ad"))
        if any(v >= 0.0 for v in e):
            errors.append("E_ad >= 0 on some row")
        if any(v >= 0.0 for v in f):
            errors.append("F_ad >= 0 on some row")
        interval = self.interval(notes)
        if interval is None:
            errors.append("no negative-entropy interval at r=0.35")
        if ref is not None:
            if not _close(e, ref["E_ad"], REF_RTOL):
                errors.append("E_ad differs from the reference")
            if not _close(s, ref["S_ad"], REF_RTOL,
                          scale=max(abs(v) for v in ref["S_ad"])):
                errors.append("S_ad differs from the reference")
            if not _close(f, ref["F_ad"], FORCE_RTOL):
                errors.append("F_ad differs from the reference")
            if interval is not None and not _close(
                    interval, ref["interval"], INTERVAL_ATOL, scale=1.0):
                errors.append("negative-entropy interval differs from the "
                              "reference")
        return errors

    def reference(self, inputs, outputs):
        notes, rows = _parse_csv(outputs[0][1])
        ref = {k: _column(rows, k) for k in ("E_ad", "S_ad", "F_ad")}
        ref["interval"] = list(self.interval(notes))
        return ref


class Points(Workload):
    name = "points"
    d = 1e-6    # centre distance [m], as in the README quick start

    def inputs(self, seed):
        return points(seed)

    def run(self, inp):
        from casimir_spheres import Geometry, ThermalPoint, matsubara
        r, z = inp
        geo = Geometry(R=r * self.d, d=self.d)
        # looked up at call time, so a traced run sees its wrapper
        return matsubara.free_energy(geo, ThermalPoint.from_z(z, geo),
                                     tol=TOL)

    @classmethod
    def e_ad(cls, inp, res) -> float:
        from casimir_spheres.geometry import Geometry, energy_scale_ad
        r, _ = inp
        return res.energy / energy_scale_ad(Geometry(R=r * cls.d, d=cls.d))

    def check(self, index, inp, out, ref):
        e = self.e_ad(inp, out)
        errors = []
        if not (math.isfinite(e) and e < 0.0):
            errors.append(f"E_ad={e!r} at (r, z)={inp} is not negative")
        if ref is not None:
            if not _close([e], [ref["E_ad"][index]], REF_RTOL):
                errors.append(f"E_ad at (r, z)={inp} differs from the "
                              "reference")
        return errors

    def reference(self, inputs, outputs):
        return {"inputs": [list(p) for p in inputs],
                "E_ad": [self.e_ad(i, o) for i, o in zip(inputs, outputs)]}


WORKLOADS = {w.name: w for w in (NearCurve(), MidSweep(), Points())}


def load_reference(name: str, seed: int) -> dict | None:
    """Stored reference outputs of a workload, or None for an unshipped seed."""
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh).get(name)
    if ref is None:
        return None
    if name == "points":
        ref = ref.get(str(seed))
        if ref is not None and ref["inputs"] != [list(p) for p in points(seed)]:
            raise ValueError(f"stored points of seed {seed} differ from the "
                             "generator")
    return ref
